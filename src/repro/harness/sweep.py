"""Parallel sweep harness: fan a (machine x N x accounting) grid of
space measurements over worker processes.

The drivers behind Figure 6, Theorem 25/26, and the section 13 tables
all evaluate the same shape of work: a grid of independent
S_X/U_X measurements, each a full metered run.  A :class:`SweepCell`
freezes one grid point as plain picklable data (program *source*, not
AST — each process compiles a program once, into the front end's LRU
of compiled programs), :func:`run_grid` executes the cells either
serially or on a ``multiprocessing`` pool, and :func:`sweep_series`
mirrors :func:`repro.space.consumption.sweep` for the common
one-machine-over-N series.

Telemetry travels the channel as plain data: ``metrics=True`` ships a
serialized registry per cell (folded by :func:`aggregate_metrics`),
``trace_sample``/``blame_every`` ship a sampled event capture and a
``BlameSeries`` per cell (folded by :func:`aggregate_traces` /
:func:`aggregate_series`) — so ``repro sweep --trace-sample`` sees
who held the space in every cell, not just a summary count.

Degradation is graceful and result-identical: a cell whose submission
or worker fails (pickling, a dead worker process) is re-run serially
in the parent; a cell that exceeds ``timeout`` seconds reports a
``timeout`` error outcome.  ``python -m repro sweep --jobs N`` and the
benchmark drivers (via ``REPRO_SWEEP_JOBS``) go through this module,
and a harness test holds parallel output byte-identical to serial.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..compiler.frontend import compiled_program, program_sha
from ..space.consumption import Consumption, measure
from ..space.meter import DEFAULT_CHECKPOINT_EVERY, DEFAULT_STEP_LIMIT


@dataclass(frozen=True)
class SweepCell:
    """One grid point: everything a worker needs, all picklable."""

    key: Tuple
    machine: str
    program: str
    argument: Optional[str] = None
    linked: bool = False
    fixed_precision: bool = False
    engine: str = "delta"
    #: ``"sampled"`` (the default: the lazy schedule where the meter
    #: allows it — same numbers, fewer exact measurements; a cell with
    #: telemetry runs eagerly) or ``"exact"`` (the per-step Definition
    #: 21 meter).
    meter: str = "sampled"
    #: Lazy-schedule checkpoint cadence (exact measurement at least
    #: every this many transitions).
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    gc_interval: int = 1
    step_limit: int = DEFAULT_STEP_LIMIT
    metrics: bool = False
    #: > 0 attaches a sampled TraceBus to the cell's run: the rate
    #: applies to the high-volume kinds (step/apply) while space/gc
    #: stay unsampled, so the shipped events still replay to the exact
    #: sup-space and collection total.  0 = no tracing.
    trace_sample: int = 0
    #: Ring capacity for the per-cell bus (most recent N survive the
    #: pickle channel); ``None`` ships everything the sampler kept.
    trace_capacity: Optional[int] = 256
    #: > 0 attaches a BlameProfiler (decomposing every k-th measured
    #: configuration) and ships its BlameSeries back.  0 = no blame.
    blame_every: int = 0
    #: > 0 attaches a RetentionProfiler (snapshotting every k-th
    #: measured configuration) and ships its per-root retained-size
    #: series (BlameSeries ``as_dict`` keyed by root labels, pointwise
    #: summing to the measured space) back.  0 = no retention.
    retention_sample: int = 0


class SweepCellError(RuntimeError):
    """The measurement of a cell that failed was asked for."""


@dataclass(frozen=True)
class SweepOutcome:
    """A cell's measurement, or the error that prevented it."""

    cell: SweepCell
    result: Optional[Consumption] = None
    error: Optional[str] = None
    metrics: Optional[dict] = None
    #: Sampled trace events (plain Event tuples) when the cell asked
    #: for tracing; ``None`` otherwise.
    events: Optional[tuple] = None
    #: The cell's BlameSeries in ``as_dict`` form when the cell asked
    #: for blame profiling; ``None`` otherwise.
    series: Optional[dict] = None
    #: The cell's per-root retained-size series (BlameSeries
    #: ``as_dict``) when the cell asked for retention sampling;
    #: ``None`` otherwise.
    retention: Optional[dict] = None

    @property
    def total(self) -> int:
        if self.result is None:
            raise SweepCellError(
                f"sweep cell {self.cell.key} failed: {self.error}"
            )
        return self.result.total


def run_cell(cell: SweepCell) -> SweepOutcome:
    """Execute one cell (module-level so worker processes can import
    it by reference).  Exceptions become error outcomes: they must
    travel back over the pickle channel.  The program goes through the
    front end once per process (:func:`compiled_program`); one that
    fails to compile fails every cell that names it.

    With ``cell.metrics`` a fresh :class:`MetricsRegistry` rides the
    metered run and comes back serialized (``as_dict``) on the outcome
    — plain data, so it survives the pickle channel, and the parent can
    fold worker registries together with :func:`aggregate_metrics`.
    ``cell.trace_sample`` / ``cell.blame_every`` likewise attach a
    sampled :class:`TraceBus` / :class:`BlameProfiler` and ship the
    kept events (plain tuples) and the cell's ``BlameSeries``
    (``as_dict``) back the same way; the parent folds them with
    :func:`aggregate_traces` / :func:`aggregate_series`."""
    registry = None
    if cell.metrics:
        from ..telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
    bus = None
    if cell.trace_sample > 0:
        from ..telemetry.bus import TraceBus

        rate = cell.trace_sample
        bus = TraceBus(
            capacity=cell.trace_capacity,
            sample={"step": rate, "apply": rate} if rate > 1 else None,
        )
        bus.meta.update(
            machine=cell.machine,
            key=str(cell.key),
            accounting="linked" if cell.linked else "flat",
        )
    blame = None
    if cell.blame_every > 0:
        from ..telemetry.blame import BlameProfiler

        blame = BlameProfiler(every=cell.blame_every)
    retention = None
    if cell.retention_sample > 0:
        from ..telemetry.retention import RetentionProfiler

        retention = RetentionProfiler(every=cell.retention_sample)
    try:
        result = measure(
            cell.machine,
            compiled_program(cell.program),
            cell.argument,
            linked=cell.linked,
            fixed_precision=cell.fixed_precision,
            engine=cell.engine,
            meter=cell.meter,
            checkpoint_every=cell.checkpoint_every,
            gc_interval=cell.gc_interval,
            step_limit=cell.step_limit,
            metrics=registry,
            trace=bus,
            blame=blame,
            retention=retention,
        )
    except Exception as error:  # noqa: BLE001 - reported, not hidden
        return SweepOutcome(cell=cell, error=f"{type(error).__name__}: {error}")
    return SweepOutcome(
        cell=cell,
        result=result,
        metrics=registry.as_dict() if registry is not None else None,
        events=tuple(bus.events) if bus is not None else None,
        series=blame.series().as_dict() if blame is not None else None,
        retention=(
            retention.series().as_dict() if retention is not None else None
        ),
    )


def default_jobs() -> int:
    """Worker count for drivers that do not take a flag: the
    ``REPRO_SWEEP_JOBS`` environment variable, default 1 (serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_SWEEP_JOBS", "1")))
    except ValueError:
        return 1


class ChannelError(RuntimeError):
    """A job could not travel the pickle channel to a worker."""


class RemoteError(RuntimeError):
    """The job function raised inside the worker process."""


class WorkerCrashed(RuntimeError):
    """The worker process died (signal, OOM kill) past its retry
    budget."""


class JobTimeout(RuntimeError):
    """The job exceeded its wall-clock timeout and its worker was
    killed."""


def _pool_worker_main(conn, parent: int) -> None:
    """Worker-process loop: receive ``(fn, arg)`` jobs, reply with zero
    or more ``("progress", payload)`` messages followed by exactly one
    ``("done", result)`` or ``("error", message)``.  ``None`` shuts the
    worker down, and so does the death of the *parent* process (pid)
    that owns the pool.  Module-level so it pickles by reference."""

    def emit(payload) -> None:
        try:
            conn.send(("progress", payload))
        except (BrokenPipeError, OSError):
            pass  # parent gone; the job result will fail the same way

    # A forked worker inherits its parent's handlers; `repro serve`
    # turns SIGTERM into KeyboardInterrupt, but a worker just dies.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            # A forked worker also holds the parent's end of its pipe,
            # so a dead parent never shows as EOF: wait in slices and
            # leave once the worker has been reparented.
            if not conn.poll(1.0):
                if os.getppid() != parent:
                    break
                continue
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        except Exception as error:  # noqa: BLE001 - job didn't unpickle
            # Connection framing survives a failed unpickle, so the
            # channel is still clean; report and keep serving.
            try:
                conn.send(
                    ("error", f"job did not survive the channel: {error}")
                )
                continue
            except Exception:
                break
        if job is None:
            break
        fn, arg = job
        try:
            result = fn(arg, emit)
        except BaseException as error:  # noqa: BLE001 - shipped, not hidden
            reply = ("error", f"{type(error).__name__}: {error}")
        else:
            reply = ("done", result)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception as error:  # unpicklable result
            try:
                conn.send(("error", f"unpicklable result: {error}"))
            except Exception:
                break
    try:
        conn.close()
    except OSError:
        pass


class _PoolJob:
    __slots__ = ("fn", "arg", "future", "on_event", "timeout", "attempts",
                 "deadline")

    def __init__(self, fn, arg, future, on_event, timeout):
        self.fn = fn
        self.arg = arg
        self.future = future
        self.on_event = on_event
        self.timeout = timeout
        self.attempts = 0
        self.deadline: Optional[float] = None

    def notify(self, kind: str, payload) -> None:
        if self.on_event is None:
            return
        try:
            self.on_event(kind, payload)
        except Exception:  # noqa: BLE001 - observer, never the job
            pass


class _PoolWorker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


class WorkerPool:
    """Long-lived worker processes over pickle channels — the sweep
    harness's `run_grid` plumbing, extracted so the serving layer can
    schedule on it too.

    Each worker is one ``multiprocessing.Process`` running
    :func:`_pool_worker_main` on its own duplex pipe.  A dispatcher
    thread in the parent multiplexes the busy pipes
    (``multiprocessing.connection.wait``), assigns queued jobs to idle
    workers, and turns channel traffic into
    :class:`concurrent.futures.Future` results:

    - ``("progress", payload)`` messages fan out to the job's
      ``on_event`` callback (kinds ``start`` / ``retry`` /
      ``progress``) — called on the dispatcher thread, so observers
      must be quick and thread-safe.
    - A worker death (pipe EOF — e.g. SIGKILL) respawns the worker and
      **re-queues the job at the front** until it has been attempted
      ``1 + max_retries`` times, after which the future fails with
      :class:`WorkerCrashed`.  Each retry emits a ``retry`` event: the
      serving layer's ``retried`` receipt.
    - A job still running ``timeout`` seconds after dispatch gets its
      worker killed (and replaced); the future fails with
      :class:`JobTimeout`.
    - A job that cannot be pickled fails its future with
      :class:`ChannelError` without losing the worker; a job function
      that raises in the worker fails with :class:`RemoteError`.

    Futures are not cancellable; ``shutdown()`` fails whatever is still
    outstanding.
    """

    _POLL = 0.2  # dispatcher wake cadence when a deadline is armed

    def __init__(self, workers: int = 1, max_retries: int = 1, context=None):
        import multiprocessing
        import threading

        if workers < 1:
            raise ValueError("workers must be positive")
        self._ctx = context if context is not None else multiprocessing
        self._max_retries = max_retries
        self._lock = threading.Lock()
        self._pending: "deque[_PoolJob]" = deque()
        self._idle: List[_PoolWorker] = []
        self._busy: Dict[object, Tuple[_PoolWorker, _PoolJob]] = {}
        self._stop = False
        self._wake_recv, self._wake_send = self._ctx.Pipe(duplex=False)
        with self._lock:
            for _ in range(workers):
                self._spawn_locked()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="worker-pool-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- public API ----------------------------------------------------

    def submit(self, fn, arg, *, timeout: Optional[float] = None,
               on_event=None):
        """Queue ``fn(arg, emit)`` on a worker; returns a Future."""
        from concurrent.futures import Future

        future: Future = Future()
        job = _PoolJob(fn, arg, future, on_event, timeout)
        with self._lock:
            if self._stop:
                raise RuntimeError("pool is shut down")
            self._pending.append(job)
        self._wake()
        return future

    def pids(self) -> List[int]:
        """Live worker pids (fault-injection tests kill these)."""
        with self._lock:
            workers = self._idle + [w for w, _job in self._busy.values()]
            return [w.pid for w in workers if w.pid is not None]

    def shutdown(self) -> None:
        """Stop the dispatcher, fail outstanding futures, reap the
        workers.  Idempotent."""
        with self._lock:
            if self._stop:
                return
            self._stop = True
        self._wake()
        self._dispatcher.join(timeout=10)
        with self._lock:
            pending = list(self._pending)
            self._pending.clear()
            busy = list(self._busy.values())
            self._busy.clear()
            workers = self._idle + [worker for worker, _job in busy]
            self._idle = []
        for job in pending:
            _fail(job.future, RuntimeError("pool shut down"))
        for _worker, job in busy:
            _fail(job.future, RuntimeError("pool shut down"))
        for worker in workers:
            try:
                worker.process.terminate()
            except Exception:
                pass
        for worker in workers:
            worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
        try:
            self._wake_recv.close()
            self._wake_send.close()
        except OSError:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- dispatcher ----------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send.send(None)
        except (BrokenPipeError, OSError):
            pass

    def _spawn_locked(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, os.getpid()),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._idle.append(_PoolWorker(process, parent_conn))

    def _dispatch_loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        while True:
            with self._lock:
                if self._stop:
                    return
                self._assign_locked()
                conns = list(self._busy)
                deadlines = [
                    job.deadline
                    for _worker, job in self._busy.values()
                    if job.deadline is not None
                ]
            wait_for = None
            if deadlines:
                wait_for = max(0.0, min(deadlines) - time.monotonic())
                wait_for = min(wait_for, self._POLL)
            try:
                ready = conn_wait([self._wake_recv] + conns, wait_for)
            except OSError:
                ready = []
            for conn in ready:
                if conn is self._wake_recv:
                    try:
                        while self._wake_recv.poll():
                            self._wake_recv.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                self._service(conn)
            self._reap_timeouts()

    def _assign_locked(self) -> None:
        while self._pending and self._idle:
            job = self._pending.popleft()
            worker = self._idle.pop()
            try:
                worker.conn.send((job.fn, job.arg))
            except Exception as error:  # unpicklable job; worker is fine
                self._idle.append(worker)
                _fail(job.future, ChannelError(
                    f"job did not survive the channel: {error}"
                ))
                continue
            job.attempts += 1
            if job.timeout is not None:
                job.deadline = time.monotonic() + job.timeout
            self._busy[worker.conn] = (worker, job)
            job.notify("start", {"pid": worker.pid, "attempt": job.attempts})

    def _service(self, conn) -> None:
        with self._lock:
            entry = self._busy.get(conn)
        if entry is None:
            return
        worker, job = entry
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            self._worker_died(conn)
            return
        if kind == "progress":
            job.notify("progress", payload)
            return
        with self._lock:
            self._busy.pop(conn, None)
            if not self._stop:
                self._idle.append(worker)
        if kind == "done":
            if not job.future.done():
                job.future.set_result(payload)
        else:
            _fail(job.future, RemoteError(str(payload)))

    def _worker_died(self, conn) -> None:
        with self._lock:
            worker, job = self._busy.pop(conn)
            if not self._stop:
                self._spawn_locked()
        pid = worker.pid
        worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:
            pass
        if job.attempts <= self._max_retries:
            job.notify("retry", {"pid": pid, "attempt": job.attempts})
            with self._lock:
                self._pending.appendleft(job)
        else:
            _fail(job.future, WorkerCrashed(
                f"worker {pid} died after {job.attempts} attempt(s)"
            ))

    def _reap_timeouts(self) -> None:
        now = time.monotonic()
        with self._lock:
            expired = [
                conn
                for conn, (_worker, job) in self._busy.items()
                if job.deadline is not None and now >= job.deadline
            ]
            victims = []
            for conn in expired:
                worker, job = self._busy.pop(conn)
                victims.append((worker, job))
                if not self._stop:
                    self._spawn_locked()
        for worker, job in victims:
            try:
                worker.process.kill()
            except Exception:
                pass
            worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
            _fail(job.future, JobTimeout(
                f"timeout: exceeded {job.timeout}s"
            ))


def _fail(future, error: Exception) -> None:
    if not future.done():
        future.set_exception(error)


def _run_cell_job(cell: SweepCell, emit) -> SweepOutcome:
    """`run_cell` in WorkerPool job shape (the sweep sends no
    progress)."""
    return run_cell(cell)


def run_grid(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> List[SweepOutcome]:
    """Run every cell; outcomes come back in cell order.

    ``jobs`` > 1 fans the cells over a :class:`WorkerPool`.  A cell
    whose worker dies is retried on a fresh worker (and serially in the
    parent as the last resort); a cell that cannot be pickled is re-run
    serially; a cell still running after ``timeout`` seconds yields a
    ``timeout`` error outcome.  Serial and parallel runs produce
    identical measurements — the cells share nothing.
    """
    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    try:
        pool = WorkerPool(workers=min(jobs, len(cells)))
    except Exception:  # no multiprocessing on this platform
        return [run_cell(cell) for cell in cells]
    outcomes: List[Optional[SweepOutcome]] = [None] * len(cells)
    try:
        futures = [
            pool.submit(_run_cell_job, cell, timeout=timeout)
            for cell in cells
        ]
        for index, future in enumerate(futures):
            try:
                outcomes[index] = future.result()
            except JobTimeout:
                outcomes[index] = SweepOutcome(
                    cell=cells[index],
                    error=f"timeout: exceeded {timeout}s",
                )
            except Exception:
                # The worker died past retries or the cell did not
                # survive the channel; the measurement itself may be
                # fine — retry in-process.
                outcomes[index] = run_cell(cells[index])
    finally:
        pool.shutdown()
    return [outcome for outcome in outcomes if outcome is not None]


def sweep_series(
    machine: str,
    program_for: Callable[[int], str],
    ns: Iterable[int],
    argument_for: Optional[Callable[[int], Optional[str]]] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    **options,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Parallel counterpart of :func:`repro.space.consumption.sweep`:
    S_X(P_n, n) totals over a family, errors raised."""
    ns = tuple(ns)
    cells = [
        SweepCell(
            key=(machine, n),
            machine=machine,
            program=program_for(n),
            argument=(
                argument_for(n) if argument_for is not None else str(n)
            ),
            **options,
        )
        for n in ns
    ]
    outcomes = run_grid(cells, jobs=jobs, timeout=timeout)
    return ns, tuple(outcome.total for outcome in outcomes)


def grid_cells(
    sources: Dict[Tuple, str],
    ns: Iterable[int],
    argument_for: Optional[Callable[[int], Optional[str]]] = None,
    **options,
) -> List[SweepCell]:
    """Cells for a labelled grid: ``sources`` maps (label..., machine)
    keys to program source; each is swept over ``ns``.  The cell key
    is the source key plus n."""
    ns = tuple(ns)
    cells = []
    for key, source in sources.items():
        machine = key[-1]
        for n in ns:
            cells.append(
                SweepCell(
                    key=tuple(key) + (n,),
                    machine=machine,
                    program=source,
                    argument=(
                        argument_for(n) if argument_for is not None else str(n)
                    ),
                    **options,
                )
            )
    return cells


def aggregate_metrics(outcomes: Iterable[SweepOutcome]) -> Dict:
    """Fold the per-cell metric dumps of a grid into one serialized
    registry (counters and histograms sum, gauges take the max) —
    the cross-worker aggregation of ``python -m repro sweep --metrics``.
    Cells that failed or ran without metrics contribute nothing."""
    from ..telemetry.metrics import MetricsRegistry

    dumps = [
        outcome.metrics for outcome in outcomes if outcome.metrics is not None
    ]
    return MetricsRegistry.merge(dumps)


def aggregate_traces(outcomes: Iterable[SweepOutcome]) -> Dict:
    """Fold the per-cell event captures of a traced grid into one
    summary: per-kind event counts summed across cells, plus the
    replayed headline numbers (steps and collections sum over the
    grid; sup-space is the max over cells, with the cell key that
    attained it).  Cells that ran without tracing contribute nothing."""
    from ..telemetry.bus import replay

    counts: Dict[str, int] = {}
    cells = 0
    steps = 0
    collected = 0
    sup_space = 0
    sup_cell = None
    for outcome in outcomes:
        if outcome.events is None:
            continue
        cells += 1
        for event in outcome.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        summary = replay(outcome.events)
        steps += summary.steps
        collected += summary.collected
        if summary.sup_space > sup_space:
            sup_space = summary.sup_space
            sup_cell = outcome.cell.key
    return {
        "cells": cells,
        "events": sum(counts.values()),
        "counts": counts,
        "steps": steps,
        "collected": collected,
        "sup_space": sup_space,
        "sup_cell": sup_cell,
    }


def aggregate_series(outcomes: Iterable[SweepOutcome]):
    """Fold the per-cell blame series of a grid into one
    :class:`~repro.telemetry.blame.BlameSeries` (via ``merge``, so
    mixed accountings are refused).  Cells without blame profiling
    contribute nothing."""
    from ..telemetry.blame import BlameSeries

    return BlameSeries.merge(
        [
            BlameSeries.from_dict(outcome.series)
            for outcome in outcomes
            if outcome.series is not None
        ]
    )


def aggregate_retention(outcomes: Iterable[SweepOutcome]):
    """Fold the per-cell retention series of a grid into one
    :class:`~repro.telemetry.blame.BlameSeries` over root labels (via
    ``merge``, so mixed accountings are refused).  Cells without
    retention sampling contribute nothing."""
    from ..telemetry.blame import BlameSeries

    return BlameSeries.merge(
        [
            BlameSeries.from_dict(outcome.retention)
            for outcome in outcomes
            if outcome.retention is not None
        ]
    )


def series_from_outcomes(
    outcomes: Iterable[SweepOutcome],
) -> Dict[Tuple, Dict[int, int]]:
    """Group grid outcomes back into {key-without-n: {n: total}}."""
    series: Dict[Tuple, Dict[int, int]] = {}
    for outcome in outcomes:
        *key, n = outcome.cell.key
        series.setdefault(tuple(key), {})[n] = outcome.total
    return series


def history_records(outcomes: Iterable[SweepOutcome]) -> List[dict]:
    """Scheduler-history rows (`repro serve --history`) for measured
    outcomes: one record per successful cell whose argument parses as
    an integer N, in the :class:`repro.serving.scheduler.SweepHistory`
    JSONL shape.  Failed cells and non-numeric arguments are skipped —
    they carry no (N, consumption) point to predict from."""
    records: List[dict] = []
    for outcome in outcomes:
        if outcome.result is None:
            continue
        cell = outcome.cell
        try:
            n = int(str(cell.argument).strip())
        except (TypeError, ValueError):
            continue
        records.append({
            "program_sha": program_sha(cell.program),
            "machine": cell.machine,
            "accounting": "linked" if cell.linked else "flat",
            "fixed_precision": cell.fixed_precision,
            "n": n,
            "consumption": outcome.result.total,
        })
    return records


__all__ = [
    "ChannelError",
    "JobTimeout",
    "RemoteError",
    "SweepCell",
    "SweepCellError",
    "SweepOutcome",
    "WorkerCrashed",
    "WorkerPool",
    "aggregate_metrics",
    "aggregate_retention",
    "aggregate_series",
    "aggregate_traces",
    "default_jobs",
    "grid_cells",
    "history_records",
    "run_cell",
    "run_grid",
    "series_from_outcomes",
    "sweep_series",
]
