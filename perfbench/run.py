"""The repo benchmark: the `run`, `sweep`, `serve` and `trace` user
paths, every job checked against an independent oracle.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \\
        --trace 0|1

``WORKLOAD`` is ``run``, ``sweep``, ``serve``, ``trace`` or ``all``.
With ``--trace 0`` the benchmark runs rounds of the workload, each in a
fresh process with the same job count, for about ``--seconds`` (a new
round starts only if it should end in time, or while fewer than
:data:`MIN_JOBS` jobs are done), and reports the end-to-end metrics.
With ``--trace 1`` it runs, for every workload whatever ``WORKLOAD``
says, one untraced and one traced round, and reports the per-layer
metrics named ``<workload>.<metric>``: each ``src/repro/`` package's
self time, the unattributed remainder, the tracing overhead, and the
counts and ratios of each layer the workload exercises.  Every metric
is printed with its unit and sample count; the last line of standard
output is the JSON result.

Built state lives in ``.bench_build/perfbench`` of the checkout: the
interpreter's bytecode cache (compiled before any round, so no round's
set-up pays for it), the oracle, per-run records with host diagnostics,
and Chrome traces of the traced rounds.  See ``perfbench/README.md``
for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

import stats  # noqa: E402 - the benchmark's own modules sit beside this file

WORKLOADS = ("run", "sweep", "serve", "trace")

#: Enough latency samples that the 95th percentile has 10 beyond it.
MIN_JOBS = 200

#: The traced run's unattributed remainder stays under this share of
#: its wall time; past it, the layer table needs more spans.
UNATTRIBUTED_LIMIT = 0.10

#: A round that has not finished after this long has hung.
ROUND_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of each workload: the layers it exercises, in the
#: layer table's order.  A traced run measures every workload, so each
#: metric, named ``<workload>.<metric>``, is a measurement where the
#: layer does work, never a placeholder.
_FRONT_END = (
    ("reader.self_s", "s"), ("reader.bytes", "bytes"),
    ("syntax.self_s", "s"), ("syntax.nodes", "count"),
    ("compiler.lower_s", "s"),
)
_MACHINE = (
    ("machine.self_s", "s"), ("machine.steps", "count"),
    ("machine.steps_per_s", "1/s"),
)
_SPACE = (
    ("space.self_s", "s"), ("space.steps_per_s", "1/s"),
    ("space.fallbacks", "count"), ("space.trials", "count"),
)
_REMAINDER = (
    ("layers.unattributed_s", "s"), ("layers.unattributed_share", "ratio"),
)
_TRACING = (("tracing.wall_s", "s"), ("tracing.overhead_s", "s"))
LAYER_METRICS = {
    "run": _FRONT_END + (
        ("compiler.codegen_s", "s"), ("compiler.plans", "count"),
        ("compiler.codes", "count"),
    ) + _MACHINE + _REMAINDER + _TRACING,
    "sweep": _FRONT_END + _MACHINE + _SPACE + (
        ("harness.spawn_s", "s"), ("harness.queue_s", "s"),
        ("harness.parallel_efficiency", "ratio"),
        ("harness.retries", "count"),
    ) + _REMAINDER + _TRACING,
    "serve": _FRONT_END + (
        ("compiler.plans", "count"), ("compiler.codes", "count"),
    ) + _MACHINE + _SPACE + (
        ("space.checkpoints", "count"), ("space.exact_reruns", "count"),
        ("harness.self_s", "s"), ("harness.cpu_wait_s", "s"),
        ("serving.self_s", "s"), ("serving.admit_ms", "ms"),
        ("serving.queue_ms", "ms"), ("serving.worker_ms", "ms"),
        ("serving.deliver_ms", "ms"), ("serving.cache_hit_ratio", "ratio"),
        ("serving.cache_builds", "count"), ("serving.verdict.fit", "count"),
        ("serving.verdict.defer", "count"),
        ("serving.verdict.uncertain", "count"),
        ("serving.verdict.unknown", "count"),
        ("serving.quota_kills", "count"), ("serving.rejected", "count"),
        ("serving.build_s", "s"), ("serving.artifact_bytes", "bytes"),
    ) + _REMAINDER + _TRACING,
    "trace": _FRONT_END + _MACHINE + _SPACE + (
        ("telemetry.self_s", "s"), ("telemetry.events", "count"),
        ("telemetry.blame_samples", "count"),
    ) + _REMAINDER + _TRACING,
}

PER_LAYER = tuple(
    (f"{workload}.{name}", unit)
    for workload in WORKLOADS for name, unit in LAYER_METRICS[workload]
)

#: Layer-table rows and the per-layer metric that carries each.
SELF_TIME_METRICS = {
    "reader": "reader.self_s", "syntax": "syntax.self_s",
    "compiler.lower": "compiler.lower_s",
    "compiler.codegen": "compiler.codegen_s",
    "machine": "machine.self_s", "space": "space.self_s",
    "telemetry": "telemetry.self_s", "harness": "harness.self_s",
    "harness.cpu_wait": "harness.cpu_wait_s", "serving": "serving.self_s",
}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    return env


def prepare(env: dict) -> str:
    """Compile every module once, and build the oracle unless a build
    from the same sources exists; returns the oracle path."""
    import oracle

    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         os.path.join(ROOT, "src", "repro"), HERE],
        env=env, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(BUILD, "oracle.json")
    current = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            current = json.load(handle).get("fingerprint")
    if current != oracle.fingerprint():
        print("perfbench: building the oracle (seed stepper, reference "
              "engine)", file=sys.stderr, flush=True)
        subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"),
                        BUILD], env=env, check=True)
    return path


def run_round(workload: str, seed: int, index: int, traced: bool,
              oracle_path: str, env: dict, limit=None,
              whole: bool = False) -> dict:
    name = (f"{workload}-s{seed}-r{index}{'-whole' if whole else ''}"
            f"{'-traced' if traced else ''}")
    out = os.path.join(BUILD, "rounds", name + ".json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "round.py"), workload,
               str(seed), str(index)]
    options = [out, "--oracle", oracle_path,
               "--history", os.path.join(BUILD, "serve-history.jsonl")]
    if traced:
        options += ["--traced", "--chrome",
                    os.path.join(BUILD, "traces", name + ".chrome.json")]
    if whole:
        options.append("--whole")
    if limit is not None:
        options += ["--limit", str(limit)]
    spawned = time.monotonic()
    # Its own process group, so a hung round goes down together with
    # the server and pool workers it started.
    process = subprocess.Popen(command + [repr(spawned)] + options, env=env,
                               stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        code = process.wait(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if code:
        raise subprocess.CalledProcessError(code, command)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(rounds: list) -> dict:
    """The end-to-end metrics over a run's rounds: (value, samples).

    Throughput and latency percentiles take the rounds' timed phases as
    one: every job over their summed wall time, percentiles over every
    job, so the rounds' different job mixes average out.  Set-up time
    and peak RSS are medians over rounds."""
    latencies = [lat for r in rounds for lat in r["latencies"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    p50, _ = stats.nearest_rank(latencies, 50)
    p95 = stats.reportable(latencies, 95)
    if p95 is None or p50 == float("inf"):
        raise RuntimeError(
            f"{attempted} jobs ({failed} failed) are too few for a "
            f"95th percentile with {stats.MIN_BEYOND} samples beyond it")
    return {
        "setup_s": (median(r["setup_s"] for r in rounds), len(rounds)),
        "jobs_per_s": (attempted / sum(r["wall_s"] for r in rounds),
                       attempted),
        "job_p50_ms": (1000 * p50, len(latencies)),
        "job_p95_ms": (1000 * p95, len(latencies)),
        "success_rate": ((attempted - failed) / attempted, attempted),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in rounds),
                        len(rounds)),
    }


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    """The workload's per-layer metrics from one untraced and one traced
    round, named ``<workload>.<metric>``."""
    table = traced["layers"]
    values = {}
    for layer, seconds in table["self_s"].items():
        values[SELF_TIME_METRICS[layer]] = seconds
    values.update(traced["counts"])
    values.update(traced["extra"])
    steps = values["machine.steps"]
    values["machine.steps_per_s"] = steps / values["machine.self_s"]
    if "space.steps_per_s" in dict(LAYER_METRICS[workload]):
        values["space.steps_per_s"] = steps / (
            values["machine.self_s"] + values["space.self_s"])
    values["layers.unattributed_s"] = table["unattributed_s"]
    values["layers.unattributed_share"] = (
        table["unattributed_s"] / table["wall_s"])
    values["tracing.wall_s"] = table["wall_s"]
    if workload == "sweep":
        baseline = traced["extra"]["untraced_serial_s"]
    else:
        baseline = sum(lat for lat in untraced["latencies"]
                       if lat != float("inf"))
    values["tracing.overhead_s"] = table["wall_s"] - baseline
    missing = [name for name, _unit in LAYER_METRICS[workload]
               if name not in values]
    if missing:
        raise RuntimeError(f"{workload}: the traced round measured no "
                           f"{', '.join(missing)}")
    samples = traced["attempted"]
    return {f"{workload}.{name}": (values[name], samples)
            for name, _unit in LAYER_METRICS[workload]}


def table_breaks(workload: str, table: dict) -> list:
    """Why a traced round's layer table cannot be trusted: a broken
    job, a negative layer self time, or an unattributed remainder at or
    past :data:`UNATTRIBUTED_LIMIT` of the traced wall time."""
    breaks = list(table["broken"])
    breaks += [f"{layer} self time {seconds:.6f} s is negative"
               for layer, seconds in table["self_s"].items() if seconds < 0]
    share = table["unattributed_s"] / table["wall_s"]
    if not share < UNATTRIBUTED_LIMIT:
        breaks.append(f"unattributed remainder {100 * share:.1f}% of the "
                      f"traced wall time")
    return [f"{workload}: {why}" for why in breaks]


def print_layer_table(workload: str, traced: dict, values: dict) -> None:
    table = traced["layers"]
    wall = table["wall_s"] or 1.0
    print(f"# {workload}: layer self time over {traced['attempted']} jobs, "
          f"traced wall {table['wall_s']:.3f} s")
    for layer, seconds in table["self_s"].items():
        print(f"#   {layer:18s} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")
    print(f"#   {'unattributed':18s} {table['unattributed_s']:9.4f} s  "
          f"{100 * table['unattributed_s'] / wall:5.1f}% (kept under "
          f"{100 * UNATTRIBUTED_LIMIT:.0f}%)")
    overhead = values[f"{workload}.tracing.overhead_s"][0]
    print(f"#   tracing overhead {overhead:.3f} s")
    for why in table_breaks(workload, table):
        print(f"# LAYER TABLE BROKEN {why}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 oracle_path: str, env: dict):
    """All rounds of one workload; returns (metrics, units, record)."""
    probe_before = stats.probe_loop()
    ticks_before = stats.cpu_ticks()
    cpu_before = stats.process_cpu()
    started = time.monotonic()
    rounds = []
    if traced:
        # The same round twice, so the two differ only by the tracing;
        # both run the same jobs for every seed (the whole universe, or
        # serve's seed-0 mix), so the traced counts do not depend on it.
        untraced = run_round(workload, seed, 0, False, oracle_path, env,
                             whole=True)
        traced_round = run_round(workload, seed, 0, True, oracle_path, env,
                                 whole=True)
        rounds = [untraced, traced_round]
        metrics = per_layer(workload, untraced, traced_round)
        units = dict(PER_LAYER)
    else:
        longest = 0.0
        while True:
            began = time.monotonic()
            rounds.append(run_round(workload, seed, len(rounds), False,
                                    oracle_path, env))
            longest = max(longest, time.monotonic() - began)
            done = sum(r["attempted"] for r in rounds)
            # Start another round only if it should end within the
            # run's time, or the percentiles still lack samples.
            if (done >= MIN_JOBS
                    and time.monotonic() - started + longest > seconds):
                break
        metrics = end_to_end(rounds)
        units = dict(END_TO_END)
    cpu_after = stats.process_cpu()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": traced,
        "metrics": {name: {"value": value, "unit": units[name],
                           "samples": n}
                    for name, (value, n) in metrics.items()},
        "failures": [f for r in rounds for f in r["failures"]],
        "diagnostics": {
            "probe_loop_before_s": probe_before,
            "probe_loop_after_s": stats.probe_loop(),
            "cpu_steal_share": stats.steal_share(ticks_before,
                                                 stats.cpu_ticks()),
            "rounds_cpu_s": cpu_after["children_s"]
            - cpu_before["children_s"],
            "rounds": [
                dict(r["diagnostics"], setup_s=r["setup_s"],
                     wall_s=r["wall_s"], jobs=r["attempted"])
                for r in rounds
            ],
        },
    }
    if traced:
        print_layer_table(workload, rounds[1], metrics)
        record["layers"] = rounds[1]["layers"]
        record["table_breaks"] = table_breaks(workload, rounds[1]["layers"])
    return metrics, units, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = child_env()
    try:
        oracle_path = prepare(env)
    except subprocess.CalledProcessError as error:
        print(f"perfbench: preparing failed: {error}", file=sys.stderr)
        return 1
    # A traced run covers every workload, so every per-layer metric is
    # measured on the workload whose layers it times.
    workloads = (WORKLOADS if args.workload == "all" or args.trace
                 else (args.workload,))
    records = []
    results = {}
    for workload in workloads:
        try:
            metrics, units, record = run_workload(
                workload, args.seed, args.seconds, bool(args.trace),
                oracle_path, env)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                RuntimeError) as error:
            print(f"perfbench: {workload} failed: {error}", file=sys.stderr)
            return 1
        records.append(record)
        results[workload] = (metrics, units)
        for failure in record["failures"]:
            print(f"# {workload} FAILED {failure['job']}: {failure['why']}")
        for name, (value, n) in metrics.items():
            label = name if args.trace else f"{workload}/{name}"
            print(f"{label} = {value:.6g} {units[name]} (n={n})")
        diagnostics = record["diagnostics"]
        print(f"# {workload} host: probe loop "
              f"{diagnostics['probe_loop_before_s']:.4f} s before, "
              f"{diagnostics['probe_loop_after_s']:.4f} s after; steal "
              f"{diagnostics['cpu_steal_share']}")
        path = os.path.join(BUILD, "runs", f"{workload}-s{args.seed}"
                            f"{'-traced' if args.trace else ''}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, allow_nan=True)
    attempted = sum(sum(r["jobs"] for r in rec["diagnostics"]["rounds"])
                    for rec in records)
    failed = sum(len(rec["failures"]) for rec in records)
    if args.trace or len(workloads) == 1:
        shown = {name: {"value": value, "unit": units[name]}
                 for metrics, units in results.values()
                 for name, (value, _n) in metrics.items()}
    else:
        shown = {f"{workload}/{name}": {"value": value, "unit": units[name]}
                 for workload, (metrics, units) in results.items()
                 for name, (value, _n) in metrics.items()}
    # Correct when every failure is a program defect README.md records
    # and every traced layer table holds.
    correct = all(f["known_defect"] for rec in records
                  for f in rec["failures"]) and not any(
        rec.get("table_breaks") for rec in records)
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
