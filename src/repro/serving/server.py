"""The `repro serve` HTTP front end.

A deliberately small hand-rolled HTTP/1.1 server on asyncio streams
(stdlib only — the repo bakes in no web framework): every connection
carries one request, responses close the connection.  Endpoints:

- ``POST /submit`` — validate a job spec (:func:`repro.serving.
  protocol.validate_submit`) or a batch ``{"jobs": [...]}``
  (:func:`~repro.serving.protocol.validate_submit_batch`), parse-check
  the program (through the content-addressed
  :class:`~repro.serving.artifacts.ArtifactCache` — a warm program
  skips lowering entirely), resolve the budget, consult the
  :class:`~repro.serving.scheduler.PredictiveScheduler` (jobs
  predicted to bust their budget settle immediately with a
  ``deferred`` receipt, never spawned), admit past the tenant's
  bounded queue, and schedule on the
  :class:`~repro.harness.sweep.WorkerPool` — each submission, one job
  or a batch, is one worker round-trip.  Replies 202 with the
  ``queued`` receipt (or a ``jobs`` array), 400 with a ``rejected``
  receipt for malformed payloads/programs, 429 for backpressure.
- ``GET /jobs/<id>`` — poll: the job snapshot with its full receipt
  stream so far.
- ``GET /jobs/<id>/stream`` — NDJSON push: the receipt stream as it
  happens (opening meta record, every receipt line byte-identical to
  the spool's, closing meta once the job settles) — the socket-facing
  twin of the spool file, and valid input to
  :func:`repro.serving.protocol.validate_job_stream` when captured.
- ``GET /jobs`` — all job snapshots; ``GET /healthz`` — liveness;
  ``GET /metrics`` — artifact-cache and scheduler counters.

Scheduling events flow from the pool's dispatcher thread into the
:class:`~repro.serving.session.SessionStore` (thread-safe); asyncio
handlers only ever read snapshots or block in ``asyncio.to_thread`` on
:meth:`~repro.serving.session.SessionStore.wait_records`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional

from ..compiler.frontend import prepare_input, program_sha
from ..harness.sweep import WorkerPool
from ..telemetry.metrics import MetricsRegistry
from .artifacts import DEFAULT_CAPACITY, ArtifactCache, build_artifact
from .protocol import validate_submit, validate_submit_batch
from .quota import resolve_budget, run_service_batch
from .scheduler import PredictiveScheduler, SweepHistory
from .session import Backpressure, SessionStore

_MAX_HEAD = 64 * 1024
_MAX_BODY = 4 * 1024 * 1024
_STREAM_POLL = 0.25


def _requested_n(spec: dict) -> Optional[int]:
    """The submission's requested N: its argument as an integer, when
    it is one (the scheduler's prediction axis)."""
    argument = spec.get("argument")
    if argument is None:
        return None
    try:
        return int(str(argument).strip())
    except ValueError:
        return None


class ReproServer:
    """The evaluation service: HTTP front end + worker pool + store."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_pending: int = 8,
        default_budget: Optional[int] = None,
        spool_dir: Optional[str] = None,
        max_retries: int = 1,
        job_timeout: Optional[float] = None,
        history=None,
        artifact_capacity: int = DEFAULT_CAPACITY,
    ):
        self.host = host
        self.port = port
        self.workers = workers
        self.default_budget = default_budget
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.store = SessionStore(max_pending=max_pending,
                                  spool_dir=spool_dir)
        self.metrics = MetricsRegistry()
        self.artifacts = ArtifactCache(
            capacity=artifact_capacity, metrics=self.metrics
        )
        if isinstance(history, str):
            history = SweepHistory.load(history)
        self.scheduler = PredictiveScheduler(history)
        self.pool: Optional[WorkerPool] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (resolving an ephemeral port) and spin up
        the worker pool."""
        if self.pool is None:
            self.pool = WorkerPool(
                workers=self.workers, max_retries=self.max_retries
            )
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.close_sync()

    def close_sync(self) -> None:
        """Tear down the non-asyncio halves (pool, spools); safe to
        call from any thread, idempotent."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        self.store.close()

    async def serve_forever(self, announce=None) -> None:
        await self.start()
        if announce is not None:
            announce(
                f"serving on http://{self.host}:{self.port} "
                f"(workers={self.workers}, "
                f"default_budget={self.default_budget})"
            )
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    def start_in_thread(self) -> "ServerHandle":
        """Run the server on a daemon thread; returns a handle with
        the bound port and a ``stop()``.  The test-suite entry."""
        started = threading.Event()
        failure: list = []
        loop_box: list = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop_box.append(loop)
            try:
                loop.run_until_complete(self.start())
            except Exception as error:  # noqa: BLE001 - reported to caller
                failure.append(error)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        thread.start()
        started.wait(30)
        if failure:
            raise failure[0]
        return ServerHandle(self, loop_box[0], thread)

    # -- scheduling ----------------------------------------------------

    def _schedule(self, members: list) -> None:
        """Run a submission's runnable (job, spec) members — one or
        several — as ONE worker round-trip
        (:func:`~repro.serving.quota.run_service_batch`).  Progress
        receipts route by batch index; terminal receipts land when the
        batch returns, so a worker crash (the whole batch re-runs on a
        fresh worker, with a ``retried`` receipt on every member) can
        never double-terminate a job."""
        ids = [job.id for job, _ in members]
        specs = [spec for _, spec in members]

        def on_event(kind: str, payload) -> None:
            if kind == "start":
                for job_id in ids:
                    self.store.append(
                        job_id,
                        {"kind": "start", "pid": payload["pid"],
                         "attempt": payload["attempt"]},
                    )
            elif kind == "retry":
                for job_id in ids:
                    self.store.append(
                        job_id,
                        {"kind": "retried", "pid": payload["pid"],
                         "attempt": payload["attempt"]},
                    )
            elif kind == "progress" and isinstance(payload, dict):
                index = payload.get("index")
                if isinstance(index, int) and 0 <= index < len(ids):
                    receipt = {k: v for k, v in payload.items()
                               if k != "index"}
                    self.store.append(ids[index], receipt)

        def on_done(future) -> None:
            error = future.exception()
            if error is not None:
                for job_id in ids:
                    self.store.append(
                        job_id,
                        {"kind": "error",
                         "error": f"{type(error).__name__}: {error}"},
                    )
                return
            for receipt in future.result()["receipts"]:
                index = receipt.pop("index")
                self.store.append(ids[index], receipt)
                self._observe(specs[index], receipt)

        if len(members) > 1:
            self.metrics.counter("batch", size=str(len(members))).inc()
        future = self.pool.submit(
            run_service_batch,
            specs,
            timeout=self.job_timeout,
            on_event=on_event,
        )
        future.add_done_callback(on_done)

    def _observe(self, spec: dict, receipt: dict) -> None:
        """Feed a completed run back into the scheduler's history (the
        service warms its own predictor; an external `repro sweep
        --history` file just starts it warm)."""
        if receipt.get("kind") != "result":
            return
        n = _requested_n(spec)
        consumption = receipt.get("consumption")
        sha = spec.get("program_sha")
        if sha is None or n is None or not isinstance(consumption, int):
            return
        self.scheduler.observe(
            sha, spec["machine"], spec["accounting"], n, consumption,
            fixed_precision=spec["fixed_precision"],
        )

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10
                )
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    asyncio.TimeoutError):
                return
            request_line, *header_lines = head.decode(
                "latin-1"
            ).split("\r\n")
            parts = request_line.split(" ")
            if len(parts) != 3:
                await self._respond(writer, 400, {
                    "kind": "rejected", "reason": "bad-request-line",
                })
                return
            method, target, _version = parts
            headers = {}
            for line in header_lines:
                if ":" in line:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", 0) or 0)
            if length:
                if length > _MAX_BODY:
                    await self._respond(writer, 413, {
                        "kind": "rejected", "reason": "body-too-large",
                    })
                    return
                body = await reader.readexactly(length)
            await self._route(writer, method, target, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, writer, method: str, target: str,
                     body: bytes) -> None:
        if method == "POST" and target == "/submit":
            await self._handle_submit(writer, body)
        elif method == "GET" and target == "/healthz":
            await self._respond(writer, 200, {
                "status": "ok",
                "workers": self.workers,
                "jobs": len(self.store.jobs()),
            })
        elif method == "GET" and target == "/jobs":
            await self._respond(writer, 200, {"jobs": self.store.jobs()})
        elif method == "GET" and target == "/metrics":
            await self._respond(writer, 200, {
                "cache": self.artifacts.stats(),
                "scheduler": {
                    "history_points": len(self.scheduler.history),
                    "cells": self.scheduler.history.cells,
                },
                "counters": self.metrics.as_dict()["counters"],
            })
        elif method == "GET" and target.startswith("/jobs/"):
            rest = target[len("/jobs/"):]
            if rest.endswith("/stream"):
                await self._handle_stream(writer, rest[: -len("/stream")])
            else:
                snapshot = self.store.snapshot(rest)
                if snapshot is None:
                    await self._respond(writer, 404, {
                        "kind": "rejected", "reason": "unknown-job",
                    })
                else:
                    await self._respond(writer, 200, snapshot)
        else:
            await self._respond(writer, 404, {
                "kind": "rejected", "reason": "unknown-endpoint",
            })

    def _prepare_spec(self, spec: dict) -> None:
        """Compile before admission — through the artifact cache: a
        cold program goes through the front end once
        (:func:`~repro.serving.artifacts.build_artifact`) and the blob
        is cached under its content address; a warm one skips parse,
        validation, and lowering entirely.  The blob rides the spec to
        the worker.  A malformed program is the submitter's 400, never
        a worker's error receipt."""
        sha = program_sha(spec["program"])
        spec["program_sha"] = sha
        spec["artifact"] = self.artifacts.get_or_build(
            sha, lambda: build_artifact(spec["program"])
        )
        prepare_input(spec["argument"])

    async def _handle_submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await self._respond(writer, 400, {
                "kind": "rejected", "reason": f"not JSON: {error}",
            })
            return
        batch = isinstance(payload, dict) and "jobs" in payload
        try:
            if batch:
                specs = validate_submit_batch(payload)
            else:
                specs = [validate_submit(payload)]
        except ValueError as error:
            await self._respond(writer, 400, {
                "kind": "rejected", "reason": str(error),
            })
            return
        for index, spec in enumerate(specs):
            try:
                self._prepare_spec(spec)
            except Exception as error:  # noqa: BLE001 - the 400 body
                prefix = f"jobs[{index}]: " if batch else ""
                await self._respond(writer, 400, {
                    "kind": "rejected",
                    "reason": f"{prefix}malformed-program: {error}",
                })
                return
        verdicts = []
        for spec in specs:
            spec["budget"] = resolve_budget(
                spec["budget"], self.default_budget
            )
            verdict = self.scheduler.verdict(
                spec["program_sha"], spec["machine"], spec["accounting"],
                _requested_n(spec), spec["budget"],
                fixed_precision=spec["fixed_precision"],
            )
            self.metrics.counter(
                "scheduler", verdict=verdict["verdict"]
            ).inc()
            verdicts.append(verdict)
        try:
            jobs = self.store.admit_batch(specs)
        except Backpressure as error:
            await self._respond(writer, 429, error.receipt())
            return
        runnable = []
        entries = []
        for job, spec, verdict in zip(jobs, specs, verdicts):
            entry = {
                "job": job.id,
                "tenant": job.tenant,
                "status": "queued",
                "budget": spec["budget"],
            }
            if verdict["verdict"] == "defer":
                # Predicted to bust the budget: settle immediately with
                # the deferred receipt, never spawn the doomed run.
                self.store.append(job.id, {
                    "kind": "deferred",
                    "budget": verdict["budget"],
                    "predicted": verdict["predicted"],
                    "requested_n": verdict["requested_n"],
                    "growth": verdict["growth"],
                    "machine": spec["machine"],
                    "accounting": spec["accounting"],
                })
                entry["status"] = "deferred"
                entry["predicted"] = verdict["predicted"]
            else:
                runnable.append((job, spec))
            entries.append(entry)
        if runnable:
            self._schedule(runnable)
        if batch:
            await self._respond(writer, 202, {"jobs": entries})
        else:
            await self._respond(writer, 202, entries[0])

    async def _handle_stream(self, writer, job_id: str) -> None:
        if self.store.get(job_id) is None:
            await self._respond(writer, 404, {
                "kind": "rejected", "reason": "unknown-job",
            })
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        count = 0
        meta = {
            "kind": "meta",
            "stream": "serve-receipts",
            "streamed": True,
            "job": job_id,
        }
        try:
            writer.write(json.dumps(meta).encode("utf-8") + b"\n")
            await writer.drain()
            last_seq = -1
            while True:
                records, settled = await asyncio.to_thread(
                    self.store.wait_records, job_id, last_seq, _STREAM_POLL
                )
                for record in records:
                    # Byte-identical to the spool's line for the same
                    # record: both are json.dumps of the same dict.
                    writer.write(
                        json.dumps(record).encode("utf-8") + b"\n"
                    )
                    last_seq = record["seq"]
                    count += 1
                if records:
                    await writer.drain()
                if settled and not records:
                    closing = {
                        "kind": "meta",
                        "closing": True,
                        "events": count,
                        "job": job_id,
                    }
                    writer.write(
                        json.dumps(closing).encode("utf-8") + b"\n"
                    )
                    await writer.drain()
                    return
        except (ConnectionError, OSError):
            return  # client dropped; the spool keeps the full stream

    async def _respond(self, writer, status: int, payload: dict) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 413: "Payload Too Large",
                   429: "Too Many Requests", 500: "Internal Server Error"}
        body = json.dumps(payload).encode("utf-8") + b"\n"
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass


class ServerHandle:
    """A running `start_in_thread` server: port + stop()."""

    def __init__(self, server: ReproServer, loop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        )
        try:
            future.result(timeout=15)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=15)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


__all__ = ["ReproServer", "ServerHandle"]
