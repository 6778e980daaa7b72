"""Multi-tenant session store for `repro serve`.

One :class:`JobRecord` per submitted job: the validated spec, a status,
and the ordered receipt stream (queued, start, retried, progress, and
exactly one terminal receipt).  Receipts are stamped with ``job`` /
``tenant`` / ``seq`` / ``ts`` here, appended to the in-memory record
list (what the poll and stream endpoints read), and written line for
line into a JSONL spool file by a
:class:`~repro.telemetry.export.JsonlStreamWriter`.

Backpressure is per tenant: a tenant may hold at most ``max_pending``
queued-or-running jobs; the next submit raises :class:`Backpressure`
(the server's 429 path) with a ``rejected`` receipt payload.

Everything is guarded by one condition variable: the WorkerPool's
dispatcher thread appends receipts, asyncio handlers read snapshots and
block (via ``asyncio.to_thread``) in :meth:`SessionStore.wait_records`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..telemetry.export import JsonlStreamWriter
from .protocol import TERMINAL_KINDS

#: Receipt kind -> terminal job status.
_TERMINAL_STATUS = {
    "result": "done",
    "quota": "killed",
    "error": "error",
    "deferred": "deferred",
}

ACTIVE_STATUSES = ("queued", "running")


class Backpressure(Exception):
    """A tenant's bounded queue is full (the 429 path)."""

    def __init__(self, tenant: str, pending: int, limit: int):
        self.tenant = tenant
        self.pending = pending
        self.limit = limit
        super().__init__(
            f"tenant {tenant!r} has {pending} pending job(s), limit {limit}"
        )

    def receipt(self) -> dict:
        return {
            "kind": "rejected",
            "reason": "backpressure",
            "tenant": self.tenant,
            "pending": self.pending,
            "limit": self.limit,
        }


@dataclass
class JobRecord:
    """One job's lifetime: spec, status, and its receipt stream."""

    id: str
    tenant: str
    spec: dict
    status: str = "queued"
    records: List[dict] = field(default_factory=list)
    result: Optional[dict] = None
    created: float = 0.0
    spool_path: Optional[str] = None

    def snapshot(self) -> dict:
        """The poll payload: plain data, safe to serialize."""
        return {
            "job": self.id,
            "tenant": self.tenant,
            "status": self.status,
            "machine": self.spec["machine"],
            "accounting": self.spec["accounting"],
            "budget": self.spec.get("budget"),
            "records": list(self.records),
            "result": self.result,
        }


class SessionStore:
    """Thread-safe job registry with per-tenant backpressure."""

    def __init__(
        self,
        max_pending: int = 8,
        spool_dir: Optional[str] = None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        self.spool_dir = spool_dir
        self._cond = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._ids = itertools.count(1)
        self._seq: Dict[str, int] = {}
        self._writers: Dict[str, JsonlStreamWriter] = {}
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)

    # -- admission -----------------------------------------------------

    def admit(self, spec: dict) -> JobRecord:
        """Register a validated spec as a queued job, or raise
        :class:`Backpressure` when the tenant's queue is full."""
        return self.admit_batch([spec])[0]

    def admit_batch(self, specs: List[dict]) -> List[JobRecord]:
        """Register several validated specs atomically: either every
        spec is admitted (in order, under one lock acquisition) or
        :class:`Backpressure` is raised and none is.  Batch members
        count against their tenant's quota together — a batch that
        would push any tenant past ``max_pending`` is refused whole."""
        with self._cond:
            pending: Dict[str, int] = {}
            for job in self._jobs.values():
                if job.status in ACTIVE_STATUSES:
                    pending[job.tenant] = pending.get(job.tenant, 0) + 1
            for spec in specs:
                tenant = spec["tenant"]
                count = pending.get(tenant, 0)
                if count >= self.max_pending:
                    raise Backpressure(tenant, count, self.max_pending)
                pending[tenant] = count + 1
            admitted = []
            for spec in specs:
                tenant = spec["tenant"]
                job_id = f"job-{next(self._ids):06d}"
                job = JobRecord(
                    id=job_id, tenant=tenant, spec=spec, created=time.time()
                )
                self._jobs[job_id] = job
                self._order.append(job_id)
                self._seq[job_id] = 0
                if self.spool_dir is not None:
                    path = os.path.join(self.spool_dir, f"{job_id}.jsonl")
                    job.spool_path = path
                    self._writers[job_id] = JsonlStreamWriter(
                        path,
                        meta={
                            "stream": "serve-receipts",
                            "job": job_id,
                            "tenant": tenant,
                            "machine": spec["machine"],
                            "accounting": spec["accounting"],
                            "budget": spec.get("budget"),
                        },
                        flush_every=1,
                    )
                admitted.append(job)
        for job in admitted:
            spec = job.spec
            self.append(
                job.id,
                {
                    "kind": "queued",
                    "machine": spec["machine"],
                    "accounting": spec["accounting"],
                    "engine": spec["engine"],
                    "meter": spec["meter"],
                    "budget": spec.get("budget"),
                },
            )
        return admitted

    # -- the receipt stream --------------------------------------------

    def append(self, job_id: str, receipt: dict) -> dict:
        """Stamp and record one receipt; terminal kinds settle the job
        (status flip, result capture, spool closed with its closing
        meta receipt).  Returns the stamped record."""
        with self._cond:
            job = self._jobs[job_id]
            seq = self._seq[job_id]
            self._seq[job_id] = seq + 1
            record = dict(receipt)
            record.update(
                job=job_id, tenant=job.tenant, seq=seq, ts=time.time()
            )
            job.records.append(record)
            kind = record.get("kind")
            if kind == "start":
                job.status = "running"
            elif kind in TERMINAL_KINDS:
                job.status = _TERMINAL_STATUS[kind]
                job.result = record
            writer = self._writers.get(job_id)
            if writer is not None:
                writer.write_record(record)
                if kind in TERMINAL_KINDS:
                    writer.close()
                    del self._writers[job_id]
            self._cond.notify_all()
            return record

    # -- reads ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._cond:
            return self._jobs.get(job_id)

    def snapshot(self, job_id: str) -> Optional[dict]:
        with self._cond:
            job = self._jobs.get(job_id)
            return None if job is None else job.snapshot()

    def jobs(self) -> List[dict]:
        with self._cond:
            return [self._jobs[job_id].snapshot() for job_id in self._order]

    def wait_records(
        self, job_id: str, after_seq: int, timeout: float
    ) -> Tuple[List[dict], bool]:
        """Receipts with ``seq > after_seq``, blocking up to
        ``timeout`` seconds for news; returns ``(records, settled)``.
        The streaming endpoint drains a job with repeated calls."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return [], True
                fresh = [r for r in job.records if r["seq"] > after_seq]
                settled = job.status not in ACTIVE_STATUSES
                if fresh or settled:
                    return fresh, settled
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._cond.wait(remaining)

    def close(self) -> None:
        """Settle nothing, but close any spool still open (a killed
        server leaves valid JSONL behind)."""
        with self._cond:
            writers = list(self._writers.values())
            self._writers.clear()
        for writer in writers:
            try:
                writer.close()
            except Exception:
                pass


__all__ = ["ACTIVE_STATUSES", "Backpressure", "JobRecord", "SessionStore"]
