"""Evaluation-as-a-service: the `repro serve` machine farm.

The paper's Figure 7/8 accounting is a *semantic* property you can
enforce, not just measure — so this package turns the meter into a
resource governor.  A long-lived asyncio server accepts Scheme programs
over HTTP, schedules them across the sweep harness's
:class:`~repro.harness.sweep.WorkerPool`, and enforces **space-quota
admission control**: each tenant carries a byte budget on the
Definition 23 consumption under a chosen accounting (flat/linked),
checked at the meter's certified measurements.  A run whose
certified lower bound crosses its quota is killed mid-flight with a
structured ``QuotaExceeded`` receipt naming the blame-census top holder
— the same machinery Theorem 25 uses to classify a separator program
kills the tenant's O(n^2) submission.

Layout:

- :mod:`repro.serving.protocol` — submit/receipt schemas and the
  validators (`telemetry.export` style: ValueError naming the line and
  field).
- :mod:`repro.serving.session` — multi-tenant session store with
  bounded per-tenant queues (429-style backpressure) and JSONL spool
  files streamed through :class:`~repro.telemetry.export.
  JsonlStreamWriter`.
- :mod:`repro.serving.quota` — the quota governor: budget resolution,
  the worker-side job entries (single and batched), progress/kill
  receipt shaping.
- :mod:`repro.serving.artifacts` — the content-addressed compiled-
  program cache: prepass + gen-3 lowering pickled once per program
  and shipped to workers, so repeat submissions skip lowering.
- :mod:`repro.serving.scheduler` — predictive quota scheduling:
  growth-class fits over recorded sweep history, admit-if-it-will-fit
  with ``deferred`` receipts for runs predicted to bust their budget.
- :mod:`repro.serving.server` — the asyncio HTTP front end
  (submit/poll plus an NDJSON streaming endpoint fed by the same
  receipt records the spool gets).
"""

from .server import ReproServer

__all__ = ["ReproServer"]
