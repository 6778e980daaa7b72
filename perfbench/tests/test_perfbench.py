"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

The last test runs a minimal-size round of every workload, untraced
and traced, against the oracle (built on first use, about a minute).
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

import run as bench
import stats
import workloads
from spans import (UNATTRIBUTED, Tracer, check_jobs, chrome_trace,
                   layer_self_times, per_job)


# -- percentiles and sample counts -----------------------------------------

def test_nearest_rank_is_a_measured_sample_with_its_count_beyond():
    samples = list(range(1, 201))  # 200 samples
    assert stats.nearest_rank(samples, 50) == (100, 100)
    assert stats.nearest_rank(samples, 95) == (190, 10)
    assert stats.nearest_rank([7.0], 95) == (7.0, 0)


def test_p95_needs_ten_samples_beyond_it():
    assert stats.reportable(list(range(200)), 95) == 189
    assert stats.reportable(list(range(199)), 95) is None


def test_failed_jobs_are_slower_than_any_limit():
    samples = [1.0] * 195 + [math.inf] * 5
    assert stats.reportable(samples, 95) == 1.0
    samples = [1.0] * 189 + [math.inf] * 11
    assert stats.reportable(samples, 95) is None
    assert stats.nearest_rank(samples, 50)[0] == 1.0


def test_benchmark_json_lists_every_metric_the_benchmark_prints():
    root = os.path.dirname(bench.HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER)
    assert set(w["name"] for w in spec["workloads"]) <= set(bench.WORKLOADS)


# -- the oracle check ------------------------------------------------------

EXPECTED = {"answer": "55", "answer200": "55", "steps": 120,
            "sup_space": 40, "consumption": 90, "collected": 12}


def _trace_outcome(**changes):
    outcome = {"answer": "55", "steps": 120, "sup_space": 40,
               "consumption": 90, "collected": 12,
               "replay": {"steps": 120, "sup_space": 40, "collected": 12},
               "blame_at_peak": 40}
    outcome.update(changes)
    return outcome


def test_check_passes_the_oracle_outcome():
    for workload in ("sweep", "trace"):
        assert workloads.check_outcome(
            workload, {}, _trace_outcome(), EXPECTED) is None


def test_check_fails_a_corrupted_answer():
    why = workloads.check_outcome("run", {}, {"answer": "56", "steps": 120},
                                  EXPECTED)
    assert why.startswith("answer")
    why = workloads.check_outcome("trace", {}, _trace_outcome(answer="5"),
                                  EXPECTED)
    assert why.startswith("answer")


def test_check_fails_a_wrong_consumption():
    why = workloads.check_outcome("sweep", {},
                                  _trace_outcome(consumption=91), EXPECTED)
    assert why.startswith("consumption")


def test_check_fails_a_replay_or_blame_mismatch():
    replay = {"steps": 120, "sup_space": 41, "collected": 12}
    assert workloads.check_outcome(
        "trace", {}, _trace_outcome(replay=replay), EXPECTED
    ).startswith("replay sup_space")
    assert workloads.check_outcome(
        "trace", {}, _trace_outcome(blame_at_peak=39), EXPECTED
    ).startswith("blame")


def test_serve_check_follows_the_budget_side():
    result = {"kind": "result", "answer": "55", "steps": 120,
              "sup_space": 40, "consumption": 90}
    under = {"side": "under", "budget": 135}
    over = {"side": "over", "budget": 54}
    check = workloads.check_outcome
    assert check("serve", under, result, EXPECTED) is None
    assert check("serve", under, dict(result, consumption=91),
                 EXPECTED).startswith("consumption")
    assert check("serve", over, result, EXPECTED) is not None
    assert check("serve", over, {"kind": "quota", "consumption": 60},
                 EXPECTED) is None
    assert check("serve", over, {"kind": "deferred", "predicted": 90},
                 EXPECTED) is None
    assert check("serve", under, {"error": "HTTP 400: malformed"},
                 EXPECTED) == "HTTP 400: malformed"


# -- span self-time arithmetic ---------------------------------------------

class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_times_subtract_children_and_telescope_ablations():
    # job [0, 10]: reader [1, 3], run [4, 9] split machine 2, space 4.
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 9.0, 10.0))
    with tracer.span("job", UNATTRIBUTED, job="j"):
        with tracer.span("read", "reader"):
            pass
        with tracer.span("run", "telemetry") as run_span:
            pass
    tracer.split(run_span, [("machine", 2.0), ("space", 4.0)])
    totals = layer_self_times(tracer.spans)
    assert totals == {UNATTRIBUTED: 3.0, "reader": 2.0, "machine": 2.0,
                      "space": 2.0, "telemetry": 1.0}
    assert sum(totals.values()) == 10.0
    assert check_jobs(tracer.spans) == []


def test_per_job_groups_and_reindexes_spans():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0))
    for job in ("a", "b"):
        with tracer.span("job", UNATTRIBUTED, job=job):
            with tracer.span("read", "reader"):
                pass
    groups = per_job(tracer.spans)
    assert sorted(groups) == ["a", "b"]
    assert [span.parent for span in groups["b"]] == [None, 0]
    assert layer_self_times(groups["b"]) == {UNATTRIBUTED: 2.0,
                                             "reader": 1.0}


def test_a_child_outside_its_parent_breaks_the_layer_table():
    tracer = Tracer()
    root = tracer.add("job", UNATTRIBUTED, 0.0, 1.0, None, job="j")
    tracer.add("deliver", "serving", 0.5, 2.0, root)
    assert len(check_jobs(tracer.spans)) == 2  # outside, and overfull


def test_overlapping_children_break_the_layer_table():
    tracer = Tracer()
    root = tracer.add("job", UNATTRIBUTED, 0.0, 1.0, None, job="j")
    tracer.add("read", "reader", 0.0, 0.6, root)
    tracer.add("expand", "syntax", 0.5, 1.0, root)
    assert check_jobs(tracer.spans) == [
        "j: job keeps -0.100000 s after its children and ablation parts"]


def test_an_ablation_longer_than_its_span_breaks_the_layer_table():
    tracer = Tracer()
    root = tracer.add("job", UNATTRIBUTED, 0.0, 1.0, None, job="j")
    run_span = tracer.add("run", "compiler.codegen", 0.0, 0.5, root)
    tracer.split(run_span, [("machine", 0.7)])
    assert check_jobs(tracer.spans) == [
        "j: run keeps -0.200000 s after its children and ablation parts"]
    tracer.split(run_span, [("machine", 0.3), ("space", 0.2)])
    assert check_jobs(tracer.spans) == ["j: run's space part is -0.100000 s"]


def test_a_traced_round_with_a_broken_table_is_not_correct():
    table = {"broken": [], "self_s": {"reader": 0.5, "machine": 0.46},
             "unattributed_s": 0.04, "wall_s": 1.0}
    assert bench.table_breaks("run", table) == []
    assert bench.table_breaks("run", dict(table, unattributed_s=0.1)) == [
        "run: unattributed remainder 10.0% of the traced wall time"]
    negative = dict(table, self_s={"reader": 1.0, "machine": -0.04})
    assert bench.table_breaks("run", negative) == [
        "run: machine self time -0.040000 s is negative"]


def test_overlapping_jobs_get_their_own_chrome_tracks():
    tracer = Tracer()
    a = tracer.add("job", UNATTRIBUTED, 0.0, 2.0, None, job="a")
    tracer.add("read", "reader", 0.5, 1.0, a)
    tracer.add("job", UNATTRIBUTED, 1.0, 3.0, None, job="b")
    tracer.add("job", UNATTRIBUTED, 2.5, 4.0, None, job="c")
    events = chrome_trace(tracer.spans)["traceEvents"]
    assert [event["tid"] for event in events] == [1, 1, 3, 1]


# -- minimal-size pass of each workload ------------------------------------

@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("traced", (False, True))
def test_minimal_round(workload, traced):
    env = bench.child_env()
    oracle_path = bench.prepare(env)
    document = bench.run_round(workload, 7, 0, traced, oracle_path, env,
                               limit=3)
    assert document["attempted"] >= 3
    assert all(f["known_defect"] for f in document["failures"])
    assert document["setup_s"] > 0
    if traced:
        table = document["layers"]
        total = sum(table["self_s"].values()) + table["unattributed_s"]
        assert total == pytest.approx(table["wall_s"], rel=1e-9)
        assert bench.table_breaks(workload, table) == []
        metrics = bench.per_layer(workload, document, document)
        assert set(metrics) == {f"{workload}.{name}" for name, _ in
                                bench.LAYER_METRICS[workload]}


def test_an_empty_directory_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(bench.HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(
                open(os.path.join(bench.HERE, name), "rb").read())
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert time.monotonic() - started < 60
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.stdout or "x")
