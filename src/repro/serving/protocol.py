"""Protocol schemas for `repro serve`: submits, receipts, job streams.

Everything on the wire is plain JSON.  A *submit* is the client's job
spec; a *receipt* is one line of a job's event stream (queued, start,
retried, progress, result, quota, error, rejected).  The validators
follow :mod:`repro.telemetry.export` style — they normalize and return
plain data or raise ``ValueError`` naming the offending field (and, for
stream files, the offending line).
"""

from __future__ import annotations

import json
import re
from typing import Optional

from ..machine.variants import ALL_MACHINES, STEPPERS
from ..space.meter import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_STEP_LIMIT,
    ENGINES,
    METERS,
)

#: Every receipt kind a job stream may carry, in the rough order they
#: appear: admission, scheduling, progress heartbeats, and exactly one
#: terminal kind (``result`` / ``quota`` / ``error`` / ``deferred``).
#: ``rejected`` is only ever an HTTP response body (400/429), never a
#: stream line.
RECEIPT_KINDS = (
    "queued",
    "start",
    "retried",
    "progress",
    "result",
    "quota",
    "error",
    "deferred",
    "rejected",
)

TERMINAL_KINDS = ("result", "quota", "error", "deferred")

#: `repro submit` exit codes — the single source of truth shared by the
#: CLI help epilog and the docs/serving.md table (a test pins both).
EXIT_CODES = (
    (0, "done", "the run completed; the result receipt is printed"),
    (1, "error/rejected", "the submission was rejected or the run erred"),
    (3, "quota-killed", "the meter crossed the budget mid-run"),
    (4, "deferred", "the scheduler predicted a bust and never spawned it"),
)

#: How many job specs one batch `POST /submit` may carry.
MAX_BATCH = 64

ACCOUNTINGS = ("flat", "linked")

_TENANT_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: Service-side ceiling on a submit's step limit: an unmetered quota on
#: *time*, matching the meter's quota on space.
MAX_STEP_LIMIT = DEFAULT_STEP_LIMIT
DEFAULT_SERVICE_STEP_LIMIT = 1_000_000

SUBMIT_DEFAULTS = {
    "tenant": "anonymous",
    "argument": None,
    "machine": "tail",
    "stepper": "annotated",
    "accounting": "flat",
    "fixed_precision": True,
    "engine": "delta",
    "meter": "sampled",
    "checkpoint_every": DEFAULT_CHECKPOINT_EVERY,
    "budget": None,
    "step_limit": DEFAULT_SERVICE_STEP_LIMIT,
    #: Emit a ``progress`` receipt every k-th checkpoint-hook firing
    #: (0 = no heartbeats).
    "progress_every": 16,
}


def _require_int(spec: dict, field: str, low: int, high: int) -> int:
    value = spec[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"submit field {field!r} must be an integer")
    if not low <= value <= high:
        raise ValueError(
            f"submit field {field!r} must be in [{low}, {high}], "
            f"got {value}"
        )
    return value


def validate_submit(payload: dict) -> dict:
    """Normalize a submit payload into a job spec.

    Unknown fields, wrong types, and out-of-range knobs raise
    ``ValueError`` (the server's 400 path); the returned spec carries
    every field of :data:`SUBMIT_DEFAULTS` plus ``program`` and the
    derived ``linked`` flag, all plain picklable data.
    """
    if not isinstance(payload, dict):
        raise ValueError("submit payload must be a JSON object")
    unknown = set(payload) - set(SUBMIT_DEFAULTS) - {"program"}
    if unknown:
        raise ValueError(
            f"unknown submit field(s): {', '.join(sorted(unknown))}"
        )
    program = payload.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ValueError("submit field 'program' must be non-empty source")
    spec = dict(SUBMIT_DEFAULTS)
    spec.update(payload)
    spec["program"] = program

    tenant = spec["tenant"]
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ValueError(
            "submit field 'tenant' must match [A-Za-z0-9_.-]{1,64}"
        )
    argument = spec["argument"]
    if argument is not None and not isinstance(argument, str):
        raise ValueError("submit field 'argument' must be a string or null")
    if spec["machine"] not in ALL_MACHINES:
        known = ", ".join(sorted(ALL_MACHINES))
        raise ValueError(
            f"unknown machine {spec['machine']!r}; known: {known}"
        )
    if spec["stepper"] not in STEPPERS:
        raise ValueError(
            f"unknown stepper {spec['stepper']!r}; known: "
            + ", ".join(STEPPERS)
        )
    if spec["accounting"] not in ACCOUNTINGS:
        raise ValueError(
            f"submit field 'accounting' must be one of {ACCOUNTINGS}"
        )
    if not isinstance(spec["fixed_precision"], bool):
        raise ValueError("submit field 'fixed_precision' must be a boolean")
    if spec["engine"] not in ENGINES:
        raise ValueError(
            f"unknown engine {spec['engine']!r}; known: " + ", ".join(ENGINES)
        )
    if spec["meter"] not in METERS:
        raise ValueError(f"submit field 'meter' must be one of {METERS}")
    _require_int(spec, "checkpoint_every", 1, 1_000_000)
    if spec["budget"] is not None:
        _require_int(spec, "budget", 1, 2**62)
    _require_int(spec, "step_limit", 1, MAX_STEP_LIMIT)
    _require_int(spec, "progress_every", 0, 1_000_000)
    spec["linked"] = spec["accounting"] == "linked"
    return spec


def validate_submit_batch(payload: dict) -> list:
    """Normalize a batch submit ``{"jobs": [spec, ...]}`` into a list
    of job specs.  Validation is all-or-nothing: any bad member raises
    ``ValueError`` naming its index, and nothing is admitted."""
    if not isinstance(payload, dict):
        raise ValueError("submit payload must be a JSON object")
    jobs = payload.get("jobs")
    unknown = set(payload) - {"jobs"}
    if unknown:
        raise ValueError(
            f"unknown batch field(s): {', '.join(sorted(unknown))}"
        )
    if not isinstance(jobs, list) or not jobs:
        raise ValueError("batch field 'jobs' must be a non-empty array")
    if len(jobs) > MAX_BATCH:
        raise ValueError(
            f"batch carries {len(jobs)} jobs; the limit is {MAX_BATCH}"
        )
    specs = []
    for index, member in enumerate(jobs):
        try:
            specs.append(validate_submit(member))
        except ValueError as error:
            raise ValueError(f"jobs[{index}]: {error}")
    return specs


_RECEIPT_FIELDS = {
    "queued": ("machine", "accounting", "engine", "meter", "budget"),
    "start": ("pid", "attempt"),
    "retried": ("pid", "attempt"),
    "progress": ("step", "consumption"),
    "result": ("answer", "steps", "sup_space", "consumption", "machine",
               "accounting"),
    "quota": ("budget", "consumption", "sup_space", "step", "holder",
              "blame", "machine", "accounting"),
    "error": ("error",),
    "deferred": ("budget", "predicted", "requested_n", "growth", "machine",
                 "accounting"),
    "rejected": ("reason",),
}


def validate_receipt(record: dict, where: str = "receipt") -> str:
    """Check one receipt record; returns its kind or raises
    ``ValueError`` naming the missing/bad field."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: not a JSON object")
    kind = record.get("kind")
    if kind not in RECEIPT_KINDS:
        raise ValueError(f"{where}: unknown receipt kind {kind!r}")
    for field in _RECEIPT_FIELDS[kind]:
        if field not in record:
            raise ValueError(f"{where}: {kind} receipt missing {field!r}")
    if kind != "rejected":
        for field in ("job", "tenant", "seq"):
            if field not in record:
                raise ValueError(
                    f"{where}: {kind} receipt missing {field!r}"
                )
    if kind == "quota":
        blame = record["blame"]
        if not isinstance(blame, dict):
            raise ValueError(f"{where}: quota receipt blame must be a dict")
        if record["consumption"] <= record["budget"]:
            raise ValueError(
                f"{where}: quota receipt consumption "
                f"{record['consumption']} does not exceed budget "
                f"{record['budget']}"
            )
        if blame and record["holder"] != max(blame, key=blame.get):
            raise ValueError(
                f"{where}: quota receipt holder {record['holder']!r} is "
                "not the blame census maximum"
            )
    if kind == "result":
        for field in ("steps", "sup_space", "consumption"):
            if not isinstance(record[field], int):
                raise ValueError(
                    f"{where}: result receipt field {field!r} must be an "
                    "integer"
                )
    if kind == "deferred":
        if record["predicted"] <= record["budget"]:
            raise ValueError(
                f"{where}: deferred receipt predicted "
                f"{record['predicted']} does not exceed budget "
                f"{record['budget']}"
            )
    return kind


def validate_result(record: dict, where: str = "result") -> dict:
    """A result receipt specifically (the success path's contract)."""
    kind = validate_receipt(record, where)
    if kind != "result":
        raise ValueError(f"{where}: expected a result receipt, got {kind}")
    return record


def validate_quota_receipt(record: dict, where: str = "quota") -> dict:
    """A quota-kill receipt specifically (the admission-control
    contract: over budget, holder = census max)."""
    kind = validate_receipt(record, where)
    if kind != "quota":
        raise ValueError(f"{where}: expected a quota receipt, got {kind}")
    return record


def validate_job_stream(path: str) -> dict:
    """Schema-check a job's JSONL stream (spool file or a captured
    ``/jobs/<id>/stream`` body): an opening meta record, receipt lines
    in seq order with exactly one terminal kind, and — when the stream
    was closed cleanly — a closing meta record whose count matches.

    Returns ``{"receipts": n, "kinds": [...], "terminal": kind,
    "meta": {...}}`` or raises ``ValueError`` naming the line.
    """
    receipts = 0
    kinds = []
    terminal: Optional[str] = None
    meta = None
    last_seq = -1
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: not JSON ({error})")
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            if lineno == 1:
                if record.get("kind") != "meta":
                    raise ValueError(
                        f"{path}:1: first line must be the meta record"
                    )
                meta = record
                continue
            if record.get("kind") == "meta":
                meta.update(record)
                continue
            kind = validate_receipt(record, f"{path}:{lineno}")
            if kind == "rejected":
                raise ValueError(
                    f"{path}:{lineno}: rejected receipts never enter a "
                    "job stream"
                )
            if terminal is not None:
                raise ValueError(
                    f"{path}:{lineno}: {kind} receipt after terminal "
                    f"{terminal} receipt"
                )
            seq = record["seq"]
            if not isinstance(seq, int) or seq <= last_seq:
                raise ValueError(
                    f"{path}:{lineno}: seq {seq!r} not increasing "
                    f"(last {last_seq})"
                )
            last_seq = seq
            receipts += 1
            kinds.append(kind)
            if kind in TERMINAL_KINDS:
                terminal = kind
    if meta is None:
        raise ValueError(f"{path}: empty job stream")
    if meta.get("closing") and meta.get("events") != receipts:
        raise ValueError(
            f"{path}: closing meta counts {meta.get('events')} events, "
            f"stream has {receipts}"
        )
    return {
        "receipts": receipts,
        "kinds": kinds,
        "terminal": terminal,
        "meta": meta,
    }


__all__ = [
    "ACCOUNTINGS",
    "EXIT_CODES",
    "MAX_BATCH",
    "METERS",
    "RECEIPT_KINDS",
    "SUBMIT_DEFAULTS",
    "TERMINAL_KINDS",
    "validate_job_stream",
    "validate_quota_receipt",
    "validate_receipt",
    "validate_result",
    "validate_submit",
    "validate_submit_batch",
]
