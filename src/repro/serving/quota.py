"""The quota governor: space budgets as admission control.

The budget caps the Definition 23 consumption ``|P| + sup space`` under
the submit's chosen accounting.  Enforcement lives in the meter
(:mod:`repro.space.meter`): every certified measurement checks the
running lower bound, so an under-budget program is never killed and an
over-budget one dies at (or before) the first checkpoint whose
certified lower bound crosses — Theorem 25's separator classification
running as a resource limit.  This module is the serving-side shim:
resolve which budget applies, run the job in the worker with the
budget and a progress heartbeat wired in, and shape the outcome
(result / quota kill / error) into receipt payloads.

``run_service_batch`` is the :class:`~repro.harness.sweep.WorkerPool`
job entry the server submits every submission through (a single job
is a batch of one), and ``run_service_job`` runs one spec of it: both
are module-level, plain-data in, plain-data out, so they travel the
pickle channel by reference.
"""

from __future__ import annotations

from typing import Optional


def resolve_budget(
    spec_budget: Optional[int], default_budget: Optional[int]
) -> Optional[int]:
    """The submit's own budget wins; otherwise the server default
    applies; ``None`` means unmetered admission."""
    return spec_budget if spec_budget is not None else default_budget


def quota_receipt(exc, blame_top: int = 8) -> dict:
    """Shape a :class:`~repro.space.meter.QuotaExceeded` into the
    receipt payload: the kill facts plus the top-N blame census rows
    (the full census can name thousands of holders; the receipt names
    the ones that matter, holder first)."""
    receipt = exc.receipt()
    blame = receipt.pop("blame")
    top = dict(
        sorted(blame.items(), key=lambda item: item[1], reverse=True)[
            :blame_top
        ]
    )
    receipt["blame"] = top
    receipt["holders"] = len(blame)
    return receipt


def make_progress_hook(emit, progress_every: int):
    """A meter ``checkpoint_hook`` that ships every k-th heartbeat down
    the worker's progress channel: one every k * ``checkpoint_every``
    steps under either meter."""
    if emit is None or progress_every <= 0:
        return None
    fired = 0

    def hook(steps: int, consumption: int) -> None:
        nonlocal fired
        if fired % progress_every == 0:
            emit({"kind": "progress", "step": steps,
                  "consumption": consumption})
        fired += 1

    return hook


def run_service_job(spec: dict, emit=None) -> dict:
    """Execute one validated job spec; returns the terminal receipt
    payload (``result`` / ``quota`` / ``error``) as plain data.

    The budget rides :func:`repro.harness.runner.run`'s ``budget``
    hook; progress heartbeats ride the meter's ``checkpoint_hook``,
    which fires every ``checkpoint_every`` steps under either meter.
    """
    from ..harness.runner import run
    from ..space.meter import QuotaExceeded
    from .artifacts import resolve_program

    hook = make_progress_hook(emit, spec.get("progress_every", 0))
    try:
        # When the spec carries a compiled artifact, hydrate it (once
        # per program per worker) and inject the pre-lowered tree;
        # otherwise run from source, re-lowering as before.
        program = resolve_program(spec)
        result = run(
            program,
            spec.get("argument"),
            machine=spec["machine"],
            meter=spec["meter"],
            linked=spec["linked"],
            fixed_precision=spec["fixed_precision"],
            engine=spec["engine"],
            checkpoint_every=spec["checkpoint_every"],
            step_limit=spec["step_limit"],
            stepper=spec["stepper"],
            budget=spec.get("budget"),
            checkpoint_hook=hook,
        )
    except QuotaExceeded as exc:
        return quota_receipt(exc)
    except Exception as error:  # noqa: BLE001 - shipped as a receipt
        return {"kind": "error", "error": f"{type(error).__name__}: {error}"}
    return {
        "kind": "result",
        "answer": result.answer,
        "steps": result.steps,
        "sup_space": result.sup_space,
        "consumption": result.consumption,
        "machine": spec["machine"],
        "accounting": spec["accounting"],
        "budget": spec.get("budget"),
    }


def run_service_batch(specs: list, emit=None) -> dict:
    """Execute a batch of validated job specs on one worker
    round-trip, serially and in order; returns
    ``{"kind": "batch", "receipts": [...]}`` with one terminal
    receipt per spec, each tagged with its batch ``index``.

    Progress heartbeats are tagged with the same index so the server
    can route them to the right job's stream.  Terminal receipts are
    delivered only through the return value — never the progress
    channel — so a worker crash mid-batch (the whole batch re-runs on
    a fresh worker) can never double-emit a terminal receipt.
    """
    receipts = []
    for index, spec in enumerate(specs):
        if emit is None:
            sub_emit = None
        else:
            def sub_emit(payload, _index=index):
                emit(dict(payload, index=_index))
        receipt = run_service_job(spec, sub_emit)
        receipt["index"] = index
        receipts.append(receipt)
    return {"kind": "batch", "receipts": receipts}


__all__ = [
    "make_progress_hook",
    "quota_receipt",
    "resolve_budget",
    "run_service_batch",
    "run_service_job",
]
