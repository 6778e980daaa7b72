"""The serving layer: WorkerPool fault injection, quota admission
control, protocol schemas, and the `repro serve` HTTP surface.

The fault-injection tests SIGKILL real worker processes and assert the
scheduler's contract: the cell is re-queued, the tenant sees a
``retried`` receipt, and the replayed results equal serial runs.  The
quota tests pin the governor's soundness both directions: an exact sup
over budget is always killed (at a certified measurement that is a
*lower bound* of the true sup), an exact sup at-or-under budget never
is — across both accountings, both engines and both meters.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import run
from repro.harness.sweep import (
    ChannelError,
    JobTimeout,
    SweepCell,
    WorkerCrashed,
    WorkerPool,
    run_cell,
    run_grid,
)
from repro.programs.corpus import load_program
from repro.programs.separators import GC_VS_TAIL, STACK_VS_GC
from repro.serving.protocol import (
    SUBMIT_DEFAULTS,
    validate_job_stream,
    validate_quota_receipt,
    validate_receipt,
    validate_result,
    validate_submit,
)
from repro.serving.quota import quota_receipt, resolve_budget, run_service_job
from repro.serving.server import ReproServer
from repro.serving.session import Backpressure, SessionStore
from repro.space.consumption import measure
from repro.space.meter import ENGINES, METERS, QuotaExceeded

pytestmark = pytest.mark.serving

LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1))))"


# -- worker-pool job functions (module-level: travel the channel by
# reference) ----------------------------------------------------------


def _double(n, emit):
    emit({"n": n})
    return 2 * n


def _sentinel_job(path, emit):
    """First attempt: leave a sentinel and hang (to be SIGKILLed).
    Second attempt sees the sentinel and returns — so a re-queued job
    is observable without any timing assumptions."""
    emit("started")
    if not os.path.exists(path):
        open(path, "w").close()
        time.sleep(60)
    return "second-attempt"


def _suicide(_arg, emit):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_forever(_arg, emit):
    time.sleep(60)


def _run_cell_job(cell, emit):
    return run_cell(cell)


# -- WorkerPool ---------------------------------------------------------


def test_worker_pool_runs_jobs_and_reports_progress():
    events = []
    with WorkerPool(workers=2) as pool:
        future = pool.submit(
            _double, 21, on_event=lambda kind, p: events.append((kind, p))
        )
        assert future.result(timeout=30) == 42
    kinds = [kind for kind, _payload in events]
    assert kinds == ["start", "progress"]
    assert events[1][1] == {"n": 21}
    assert events[0][1]["attempt"] == 1


def test_worker_pool_sigkill_requeues_and_emits_retry(tmp_path):
    sentinel = str(tmp_path / "sentinel")
    events = []
    with WorkerPool(workers=1, max_retries=1) as pool:
        future = pool.submit(
            _sentinel_job,
            sentinel,
            on_event=lambda kind, p: events.append((kind, p)),
        )
        deadline = time.monotonic() + 30
        while not any(k == "progress" for k, _p in events):
            assert time.monotonic() < deadline, "no progress before kill"
            time.sleep(0.01)
        first_pid = next(p["pid"] for k, p in events if k == "start")
        os.kill(first_pid, signal.SIGKILL)
        assert future.result(timeout=60) == "second-attempt"
    kinds = [kind for kind, _payload in events]
    assert kinds.count("retry") == 1, kinds
    assert kinds.count("start") == 2, kinds
    second_pid = [p["pid"] for k, p in events if k == "start"][1]
    assert second_pid != first_pid  # a fresh worker replaced the corpse
    attempts = [p["attempt"] for k, p in events if k == "start"]
    assert attempts == [1, 2]


def test_worker_pool_crash_past_retries_fails_future():
    with WorkerPool(workers=1, max_retries=1) as pool:
        future = pool.submit(_suicide, None)
        with pytest.raises(WorkerCrashed):
            future.result(timeout=60)
        # The pool replaced the dead workers and still serves.
        assert pool.submit(_double, 4).result(timeout=30) == 8


def test_worker_pool_job_timeout_kills_and_recovers():
    with WorkerPool(workers=1) as pool:
        future = pool.submit(_sleep_forever, None, timeout=0.5)
        with pytest.raises(JobTimeout):
            future.result(timeout=60)
        assert pool.submit(_double, 3).result(timeout=30) == 6


def test_worker_pool_unpicklable_job_is_rejected_not_fatal():
    with WorkerPool(workers=1) as pool:
        future = pool.submit(_double, lambda: 1)
        with pytest.raises(ChannelError):
            future.result(timeout=30)
        assert pool.submit(_double, 5).result(timeout=30) == 10


# -- run_grid degradation ----------------------------------------------


def test_run_grid_unpicklable_cell_reruns_serially():
    # The documented fallback: a cell whose key cannot travel the
    # pickle channel is re-run in the parent, same numbers.
    good = SweepCell(key=("loop", "gc", 16), machine="gc", program=LOOP,
                     argument="16")
    weird = SweepCell(key=("loop", lambda: None), machine="gc",
                      program=LOOP, argument="16")
    outcomes = run_grid([good, weird], jobs=2)
    assert [outcome.error for outcome in outcomes] == [None, None]
    assert outcomes[0].total == outcomes[1].total == run_cell(good).total


def test_parallel_grid_equals_serial_under_worker_death():
    cells = [
        SweepCell(key=("loop", "gc", n), machine="gc", program=LOOP,
                  argument=str(n), meter="sampled")
        for n in (64, 128, 2000, 256)
    ]
    serial = [run_cell(cell) for cell in cells]

    events = []

    def kill_on_start(index):
        def on_event(kind, payload):
            events.append((index, kind, payload))
            if kind == "start" and index == 2 and payload["attempt"] == 1:
                # SIGKILL the worker the moment the long cell lands on
                # it: the job takes ~10^4x longer than signal delivery,
                # so the kill is mid-run by construction.
                os.kill(payload["pid"], signal.SIGKILL)

        return on_event

    with WorkerPool(workers=2, max_retries=1) as pool:
        futures = [
            pool.submit(_run_cell_job, cell, on_event=kill_on_start(i))
            for i, cell in enumerate(cells)
        ]
        parallel = [future.result(timeout=120) for future in futures]

    retried = [(i, k) for i, k, _p in events if k == "retry"]
    assert retried == [(2, "retry")], retried
    for before, after in zip(serial, parallel):
        assert after.error is None
        assert after.total == before.total
        assert after.result.steps == before.result.steps
        assert after.result.answer == before.result.answer


# -- the quota governor ------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    machine=st.sampled_from(("tail", "gc", "stack")),
    linked=st.booleans(),
    engine=st.sampled_from(ENGINES),
    meter=st.sampled_from(METERS),
    n=st.integers(min_value=4, max_value=20),
    over=st.booleans(),
)
def test_quota_kills_iff_exact_sup_exceeds_budget(
    machine, linked, engine, meter, n, over
):
    exact = run(
        LOOP, str(n), machine=machine, meter="exact", linked=linked,
        engine="delta",
    )
    # Over: the smallest budget the exact consumption exceeds.
    # Under: a budget the exact consumption never crosses.
    budget = exact.consumption - 1 if over else exact.consumption
    if over:
        with pytest.raises(QuotaExceeded) as caught:
            run(LOOP, str(n), machine=machine, meter=meter, linked=linked,
                engine=engine, budget=budget)
        exc = caught.value
        assert exc.budget == budget
        assert exc.consumption > budget
        # Every kill fires on a certified lower bound of the true sup.
        assert exc.consumption <= exact.consumption
        if exc.blame:
            assert exc.holder == max(exc.blame, key=exc.blame.get)
    else:
        result = run(
            LOOP, str(n), machine=machine, meter=meter, linked=linked,
            engine=engine, budget=budget,
        )
        assert result.consumption == exact.consumption
        assert result.answer == exact.answer


def test_quota_receipt_names_the_census_top_holder():
    with pytest.raises(QuotaExceeded) as caught:
        run(LOOP, "400", machine="gc", meter="sampled", budget=300,
            fixed_precision=True)
    exc = caught.value
    assert sum(exc.blame.values()) == exc.sup_space
    receipt = quota_receipt(exc, blame_top=4)
    assert len(receipt["blame"]) <= 4
    assert receipt["holder"] in receipt["blame"]
    stamped = dict(receipt, job="job-000000", tenant="t", seq=0)
    validate_quota_receipt(stamped)


def test_resolve_budget_precedence():
    assert resolve_budget(None, None) is None
    assert resolve_budget(None, 500) == 500
    assert resolve_budget(300, 500) == 300
    assert resolve_budget(300, None) == 300


# -- protocol schemas --------------------------------------------------


def test_validate_submit_normalizes_and_defaults():
    spec = validate_submit({"program": LOOP, "accounting": "linked"})
    assert spec["machine"] == "tail"
    assert spec["meter"] == "sampled"
    assert spec["linked"] is True
    assert spec["budget"] is None
    assert set(SUBMIT_DEFAULTS) < set(spec)


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({}, "program"),
        ({"program": "  "}, "program"),
        ({"program": LOOP, "warp": 9}, "unknown submit field"),
        ({"program": LOOP, "tenant": "no spaces!"}, "tenant"),
        ({"program": LOOP, "machine": "warp"}, "unknown machine"),
        ({"program": LOOP, "engine": "warp"}, "unknown engine"),
        ({"program": LOOP, "meter": "warp"}, "meter"),
        ({"program": LOOP, "budget": 0}, "budget"),
        ({"program": LOOP, "budget": True}, "budget"),
        ({"program": LOOP, "step_limit": 10**12}, "step_limit"),
        ({"program": LOOP, "stepper": "gen2"}, "unknown stepper"),
        ("not-a-dict", "JSON object"),
    ],
)
def test_validate_submit_rejects(payload, fragment):
    with pytest.raises(ValueError) as caught:
        validate_submit(payload)
    assert fragment in str(caught.value)


def test_sampled_reference_submit_runs_eagerly():
    """The reference engine has no O(1) bound, so a sampled job on it
    takes the eager schedule — same numbers as the exact meter."""
    spec = validate_submit({"program": LOOP, "argument": "12",
                            "machine": "gc", "meter": "sampled",
                            "engine": "reference"})
    runs = {
        meter: measure("gc", LOOP, "12", engine="reference", meter=meter,
                       fixed_precision=True)
        for meter in METERS
    }
    assert runs["sampled"].meter_stats["mode"] == "exact"
    assert (runs["sampled"].total, runs["sampled"].steps) == (
        runs["exact"].total, runs["exact"].steps
    )
    receipt = run_service_job(spec)
    assert receipt["kind"] == "result"
    assert receipt["consumption"] == runs["exact"].total


def test_validate_receipt_requires_kind_fields():
    with pytest.raises(ValueError, match="unknown receipt kind"):
        validate_receipt({"kind": "warp"})
    with pytest.raises(ValueError, match="missing 'answer'"):
        validate_receipt({"kind": "result", "job": "j", "tenant": "t",
                          "seq": 0})
    with pytest.raises(ValueError, match="missing 'seq'"):
        validate_receipt({"kind": "error", "error": "x", "job": "j",
                          "tenant": "t"})


def test_validate_quota_receipt_checks_the_census():
    base = {"kind": "quota", "job": "j", "tenant": "t", "seq": 3,
            "budget": 100, "consumption": 150, "sup_space": 140,
            "step": 9, "machine": "gc", "accounting": "flat",
            "holder": "kont:Return", "blame": {"kont:Return": 90,
                                               "store:Num": 50}}
    validate_quota_receipt(base)
    with pytest.raises(ValueError, match="not the blame census maximum"):
        validate_quota_receipt(dict(base, holder="store:Num"))
    with pytest.raises(ValueError, match="does not exceed budget"):
        validate_quota_receipt(dict(base, consumption=90))


def test_validate_job_stream_rejects_broken_streams(tmp_path):
    def stream(lines):
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return str(path)

    meta = {"kind": "meta", "stream": "serve-receipts"}
    result = {"kind": "result", "job": "j", "tenant": "t", "seq": 1,
              "answer": "0", "steps": 3, "sup_space": 5, "consumption": 9,
              "machine": "gc", "accounting": "flat"}
    queued = {"kind": "queued", "job": "j", "tenant": "t", "seq": 0,
              "machine": "gc", "accounting": "flat", "engine": "delta",
              "meter": "sampled", "budget": None}
    info = validate_job_stream(stream([meta, queued, result]))
    assert info["terminal"] == "result"
    assert info["kinds"] == ["queued", "result"]

    with pytest.raises(ValueError, match="first line"):
        validate_job_stream(stream([queued, result]))
    with pytest.raises(ValueError, match="after terminal"):
        validate_job_stream(stream([meta, queued, result,
                                    dict(queued, seq=2)]))
    with pytest.raises(ValueError, match="not increasing"):
        validate_job_stream(stream([meta, queued, dict(result, seq=0)]))
    with pytest.raises(ValueError, match="closing meta counts"):
        validate_job_stream(stream([
            meta, queued, result,
            {"kind": "meta", "closing": True, "events": 7},
        ]))


# -- the session store -------------------------------------------------


def _spec(**overrides):
    payload = {"program": LOOP, "argument": "8", "machine": "gc"}
    payload.update(overrides)
    return validate_submit(payload)


def test_session_store_backpressure_is_per_tenant(tmp_path):
    store = SessionStore(max_pending=2, spool_dir=str(tmp_path))
    store.admit(_spec(tenant="alice"))
    store.admit(_spec(tenant="alice"))
    store.admit(_spec(tenant="bob"))  # bob's queue is his own
    with pytest.raises(Backpressure) as caught:
        store.admit(_spec(tenant="alice"))
    receipt = caught.value.receipt()
    assert receipt["kind"] == "rejected"
    assert receipt["reason"] == "backpressure"
    assert receipt["pending"] == receipt["limit"] == 2
    store.close()


def test_session_store_spool_is_valid_jsonl_with_closing_receipt(tmp_path):
    store = SessionStore(max_pending=4, spool_dir=str(tmp_path))
    job = store.admit(_spec(tenant="carol"))
    store.append(job.id, {"kind": "start", "pid": 123, "attempt": 1})
    store.append(job.id, {"kind": "result", "answer": "0", "steps": 3,
                          "sup_space": 5, "consumption": 9,
                          "machine": "gc", "accounting": "flat"})
    info = validate_job_stream(job.spool_path)
    assert info["kinds"] == ["queued", "start", "result"]
    assert info["meta"]["closing"] is True
    assert store.get(job.id).status == "done"
    store.close()


# -- the HTTP surface --------------------------------------------------


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll(url, job, timeout=120):
    deadline = time.monotonic() + timeout
    while True:
        status, snapshot = _get(f"{url}/jobs/{job}")
        assert status == 200, snapshot
        if snapshot["status"] not in ("queued", "running"):
            return snapshot
        assert time.monotonic() < deadline, "job never settled"
        time.sleep(0.05)


@contextmanager
def _serve(**kwargs):
    kwargs.setdefault("workers", 2)
    server = ReproServer(**kwargs)
    handle = server.start_in_thread()
    try:
        yield handle
    finally:
        handle.stop()


def test_serve_smoke_submit_poll_matches_runner(tmp_path):
    string_ops = load_program("string-ops")
    inputs = (
        (GC_VS_TAIL, "64", "gc"),
        # String constants pass the one validation rule on every path.
        (string_ops.source, string_ops.default_input, "sfs"),
    )
    with _serve(spool_dir=str(tmp_path)) as handle:
        for program, argument, machine in inputs:
            status, body = _post(f"{handle.url}/submit", {
                "program": program, "argument": argument,
                "machine": machine,
            })
            assert status == 202, body
            snapshot = _poll(handle.url, body["job"])
            assert snapshot["status"] == "done"
            receipt = validate_result(snapshot["result"])
            expected = run(
                program, argument, machine=machine, meter="sampled",
                fixed_precision=True,
            )
            assert receipt["answer"] == expected.answer
            assert receipt["steps"] == expected.steps
            assert receipt["sup_space"] == expected.sup_space
            assert receipt["consumption"] == expected.consumption
        # The spool replays the same stream the endpoint served.
        with urllib.request.urlopen(
            f"{handle.url}/jobs/{body['job']}/stream", timeout=60
        ) as response:
            streamed = response.read().decode("utf-8").splitlines()
        spooled = (tmp_path / f"{body['job']}.jsonl").read_text().splitlines()
        is_receipt = lambda line: json.loads(line).get("kind") != "meta"
        assert (
            [line for line in streamed if is_receipt(line)]
            == [line for line in spooled if is_receipt(line)]
        )
        info = validate_job_stream(str(tmp_path / f"{body['job']}.jsonl"))
        assert info["terminal"] == "result"
        assert info["meta"]["closing"] is True


def test_serve_rejects_malformed_submissions():
    with _serve() as handle:
        status, body = _post(f"{handle.url}/submit", {
            "program": "(lambda (x)",  # unterminated
        })
        assert status == 400
        assert body["kind"] == "rejected"
        assert "malformed-program" in body["reason"]
        status, body = _post(f"{handle.url}/submit", {
            "program": LOOP, "machine": "warp",
        })
        assert status == 400 and "unknown machine" in body["reason"]
        # The stepper field takes the live stepper or the seed only.
        status, body = _post(f"{handle.url}/submit", {
            "program": LOOP, "stepper": "gen2",
        })
        assert status == 400 and "unknown stepper" in body["reason"]
        status, body = _post(f"{handle.url}/submit", {
            "program": "(f 1)",  # unbound free variable
        })
        assert status == 400 and "malformed-program" in body["reason"]
        status, body = _get(f"{handle.url}/jobs/job-999999")
        assert status == 404


def test_serve_backpressure_returns_429():
    with _serve(workers=1, max_pending=1) as handle:
        status, body = _post(f"{handle.url}/submit", {
            "program": GC_VS_TAIL, "argument": "30000",
            "machine": "gc", "tenant": "dave",
        })
        assert status == 202, body
        status, body = _post(f"{handle.url}/submit", {
            "program": LOOP, "argument": "8", "machine": "gc",
            "tenant": "dave",
        })
        assert status == 429
        assert body["kind"] == "rejected"
        assert body["reason"] == "backpressure"
        # Another tenant is not throttled by dave's queue.
        status, _body = _post(f"{handle.url}/submit", {
            "program": LOOP, "argument": "8", "machine": "gc",
            "tenant": "erin",
        })
        assert status == 202


def test_serve_quota_kill_vs_tail_completion_end_to_end(tmp_path):
    # The acceptance scenario: the O(n^2) separator program under a
    # budget sized for O(n) dies with a quota receipt naming the blame
    # holder; the same program on the tail machine fits and completes.
    n = "48"
    tail = run(STACK_VS_GC, n, machine="tail", meter="sampled",
               fixed_precision=True)
    stack = run(STACK_VS_GC, n, machine="stack", meter="sampled",
                fixed_precision=True)
    budget = tail.consumption + 200
    assert stack.consumption > budget, "separator numbers moved"
    with _serve(spool_dir=str(tmp_path), default_budget=budget) as handle:
        status, killed = _post(f"{handle.url}/submit", {
            "program": STACK_VS_GC, "argument": n, "machine": "stack",
        })
        assert status == 202 and killed["budget"] == budget
        snapshot = _poll(handle.url, killed["job"])
        assert snapshot["status"] == "killed"
        receipt = validate_quota_receipt(snapshot["result"])
        assert receipt["holder"] == max(
            receipt["blame"], key=receipt["blame"].get
        )
        assert receipt["consumption"] > budget
        info = validate_job_stream(str(tmp_path / f"{killed['job']}.jsonl"))
        assert info["terminal"] == "quota"

        status, body = _post(f"{handle.url}/submit", {
            "program": STACK_VS_GC, "argument": n, "machine": "tail",
        })
        assert status == 202
        snapshot = _poll(handle.url, body["job"])
        assert snapshot["status"] == "done"
        assert snapshot["result"]["consumption"] == tail.consumption


def test_serve_worker_sigkill_yields_retried_receipt_and_serial_result(
    tmp_path,
):
    """Both meters send progress receipts (the checkpoint hook fires
    under either schedule); killing the worker at the first one must
    yield a retried receipt and the serial result."""
    with _serve(spool_dir=str(tmp_path), workers=1) as handle:
        for meter in METERS:
            status, body = _post(f"{handle.url}/submit", {
                "program": GC_VS_TAIL, "argument": "15000", "machine": "gc",
                "meter": meter, "progress_every": 1,
            })
            assert status == 202, body
            job = body["job"]
            # Follow the stream; kill the worker at its first heartbeat
            # (the run is ~10^5 steps past that point, so it dies
            # mid-run).
            pid = None
            killed = False
            with urllib.request.urlopen(
                f"{handle.url}/jobs/{job}/stream", timeout=120
            ) as response:
                for raw in response:
                    record = json.loads(raw)
                    if record.get("kind") == "start" and pid is None:
                        pid = record["pid"]
                    if record.get("kind") == "progress" and not killed:
                        assert pid is not None
                        os.kill(pid, signal.SIGKILL)
                        killed = True
                    if record.get("kind") in ("result", "quota", "error"):
                        break
            assert killed, meter
            snapshot = _poll(handle.url, job)
            assert snapshot["status"] == "done", snapshot["result"]
            kinds = [record["kind"] for record in snapshot["records"]]
            assert "retried" in kinds, kinds
            assert kinds.count("start") == 2, kinds
            expected = run(GC_VS_TAIL, "15000", machine="gc", meter=meter,
                           fixed_precision=True)
            assert snapshot["result"]["sup_space"] == expected.sup_space
            assert snapshot["result"]["steps"] == expected.steps
            info = validate_job_stream(str(tmp_path / f"{job}.jsonl"))
            assert info["terminal"] == "result"
            assert "retried" in info["kinds"]


# -- batch submission --------------------------------------------------


def test_batch_submit_runs_all_jobs_with_per_job_spools(tmp_path):
    """A batch rides one worker round-trip but every member gets its
    own seq-ordered, byte-identical spool and a result matching a
    serial run."""
    args = ("8", "16", "48")
    with _serve(spool_dir=str(tmp_path), workers=1) as handle:
        status, body = _post(f"{handle.url}/submit", {
            "jobs": [
                {"program": GC_VS_TAIL, "argument": n, "machine": "gc"}
                for n in args
            ],
        })
        assert status == 202, body
        assert len(body["jobs"]) == len(args)
        for entry, n in zip(body["jobs"], args):
            assert entry["status"] == "queued"
            snapshot = _poll(handle.url, entry["job"])
            assert snapshot["status"] == "done", snapshot
            receipt = validate_result(snapshot["result"])
            expected = run(GC_VS_TAIL, n, machine="gc", meter="sampled",
                           fixed_precision=True)
            assert receipt["consumption"] == expected.consumption
            assert receipt["answer"] == expected.answer
            info = validate_job_stream(
                str(tmp_path / f"{entry['job']}.jsonl"))
            assert info["terminal"] == "result"


def test_batch_admission_is_all_or_nothing(tmp_path):
    with _serve(spool_dir=str(tmp_path), max_pending=2) as handle:
        jobs = [{"program": LOOP, "argument": "4", "machine": "gc"}] * 3
        status, body = _post(f"{handle.url}/submit", {"jobs": jobs})
        assert status == 429, body
        assert body["reason"] == "backpressure"
        # Nothing was admitted: a batch that does fit still has the
        # full quota available.
        status, body = _post(f"{handle.url}/submit", {"jobs": jobs[:2]})
        assert status == 202, body
        for entry in body["jobs"]:
            assert _poll(handle.url, entry["job"])["status"] == "done"


def test_batch_invalid_member_rejects_whole_batch(tmp_path):
    with _serve(spool_dir=str(tmp_path)) as handle:
        status, body = _post(f"{handle.url}/submit", {"jobs": [
            {"program": LOOP, "argument": "4", "machine": "gc"},
            {"program": LOOP, "argument": "4", "machine": "warp-drive"},
        ]})
        assert status == 400, body
        assert "jobs[1]" in body["reason"]
        status, body = _post(f"{handle.url}/submit", {"jobs": []})
        assert status == 400
        status, body = _post(f"{handle.url}/submit", {"jobs": [
            {"program": "(define (f n)", "argument": "4",
             "machine": "gc"},
        ]})
        assert status == 400, body
        assert "jobs[0]" in body["reason"]


# -- predictive scheduling over HTTP -----------------------------------


def _primed_history():
    from repro.serving.artifacts import program_sha
    from repro.serving.scheduler import SweepHistory

    history = SweepHistory()
    sha = program_sha(STACK_VS_GC)
    for n in (8, 16, 32, 64):
        result = run(STACK_VS_GC, str(n), machine="stack", meter="exact",
                     fixed_precision=True)
        history.record(sha, "stack", "flat", n, result.consumption)
    return history


def test_deferred_receipt_instead_of_doomed_run(tmp_path):
    """A submission the sweep history proves will bust its budget is
    never spawned: the terminal receipt is ``deferred`` and the spool
    validates with that terminal."""
    history = _primed_history()
    budget = run(STACK_VS_GC, "16", machine="stack", meter="exact",
                 fixed_precision=True).consumption + 64
    with _serve(spool_dir=str(tmp_path), history=history) as handle:
        status, body = _post(f"{handle.url}/submit", {
            "program": STACK_VS_GC, "argument": "100000",
            "machine": "stack", "budget": budget,
        })
        assert status == 202, body
        assert body["status"] == "deferred"
        snapshot = _poll(handle.url, body["job"])
        assert snapshot["status"] == "deferred"
        receipt = snapshot["result"]
        assert receipt["kind"] == "deferred"
        assert receipt["predicted"] > receipt["budget"] == budget
        assert receipt["requested_n"] == 100000
        info = validate_job_stream(str(tmp_path / f"{body['job']}.jsonl"))
        assert info["terminal"] == "deferred"
        # A fit-verdict submission on the same cell still runs to done.
        status, body = _post(f"{handle.url}/submit", {
            "program": STACK_VS_GC, "argument": "16",
            "machine": "stack", "budget": budget,
        })
        assert status == 202, body
        snapshot = _poll(handle.url, body["job"])
        assert snapshot["status"] == "done", snapshot


def test_server_self_learns_history_from_results(tmp_path):
    """With no sweep file, completed runs feed the scheduler: after
    three warm-up submissions the fourth (huge N, same budget) is
    deferred by the monotone certificate."""
    with _serve(spool_dir=str(tmp_path), workers=1) as handle:
        for n in ("8", "16", "48"):
            status, body = _post(f"{handle.url}/submit", {
                "program": GC_VS_TAIL, "argument": n, "machine": "gc",
            })
            assert status == 202
            assert _poll(handle.url, body["job"])["status"] == "done"
        ceiling = run(GC_VS_TAIL, "48", machine="gc", meter="exact",
                      fixed_precision=True).consumption
        status, body = _post(f"{handle.url}/submit", {
            "program": GC_VS_TAIL, "argument": "100000", "machine": "gc",
            "budget": ceiling,
        })
        assert status == 202, body
        assert body["status"] == "deferred"
        receipt = _poll(handle.url, body["job"])["result"]
        assert receipt["kind"] == "deferred"
        assert receipt["predicted"] > ceiling


# -- the metrics endpoint ----------------------------------------------


def test_metrics_endpoint_reports_cache_and_scheduler(tmp_path):
    with _serve(spool_dir=str(tmp_path), workers=1) as handle:
        for machine in ("gc", "gc", "tail"):
            status, body = _post(f"{handle.url}/submit", {
                "program": GC_VS_TAIL, "argument": "8", "machine": machine,
            })
            assert status == 202
            assert _poll(handle.url, body["job"])["status"] == "done"
        status, metrics = _get(f"{handle.url}/metrics")
        assert status == 200
        # One program on two machines: one artifact, built once.
        assert metrics["cache"]["builds"] == 1
        assert metrics["cache"]["hits"] == 2
        assert metrics["cache"]["misses"] == 1
        assert metrics["cache"]["entries"] == 1
        assert metrics["scheduler"]["history_points"] >= 1
        assert any(key.startswith("artifact_cache")
                   for key in metrics["counters"])


# -- shutdown ------------------------------------------------------------


def _children(pid):
    """Live child pids of *pid* (zombies count as gone)."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.add(int(entry))
    return found


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_serve_sigterm_stops_its_pool_workers():
    """SIGTERM stops `repro serve` the way Ctrl-C does: the pool is
    shut down, and no worker outlives the server."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        text=True,
    )
    workers = set()
    try:
        assert "serving on" in server.stdout.readline()
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            workers = _children(server.pid)
            time.sleep(0.05)
        assert len(workers) == 2, workers
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=30)
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, [
                pid for pid in workers if _alive(pid)
            ]
            time.sleep(0.05)
    finally:
        for pid in [server.pid, *workers]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        server.wait(timeout=30)
        server.stdout.close()


# -- exit codes: one source of truth -----------------------------------


def test_exit_codes_share_one_source_with_docs_and_cli_help():
    from repro.cli import build_parser
    from repro.serving.protocol import EXIT_CODES

    codes = {code for code, _, _ in EXIT_CODES}
    assert codes == {0, 1, 3, 4}

    docs = open("docs/serving.md", encoding="utf-8").read()
    for code, name, _meaning in EXIT_CODES:
        assert f"| {code} | `{name}` |" in docs, (code, name)

    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    help_text = subparsers.choices["submit"].format_help()
    for code, name, _meaning in EXIT_CODES:
        assert name in help_text, name
        assert str(code) in help_text
