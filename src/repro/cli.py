"""Command-line interface.

::

    python -m repro run program.scm --arg 100 --machine tail --meter
    python -m repro run program.scm --arg 100 --meter --stepper seed
    python -m repro run program.scm --arg 100 --meter --stream trace.jsonl
    python -m repro machines
    python -m repro census program.scm ...       # Figure 2 statistics
    python -m repro analyze --loops              # self-tail-loop audit
    python -m repro dynamic program.scm --arg 10 # runtime census
    python -m repro sweep program.scm --ns 8,16,32,64 --machine gc --jobs 4
    python -m repro sweep program.scm --machine tail,gc --metrics sweep.json
    python -m repro sweep program.scm --trace-sample 64 --blame-every 8
    python -m repro trace program.scm --arg 64 --machine gc --series
    python -m repro trace program.scm --arg 64 --suggest-fusions
    python -m repro analyze --retention --machine gc --diff tail
    python -m repro trace p.scm --arg 64 --retention-top 8 --flamegraph out.folded
    python -m repro sweep program.scm --machine gc --retention-sample 8
    python -m repro trace --metrics-in metrics.json   # rank fusions offline
    python -m repro audit gc tail                # space-safety audit
    python -m repro corpus                       # bundled benchmarks
    python -m repro serve --port 8000 --spool-dir spool   # machine farm
    python -m repro submit program.scm --arg 64 --machine gc --budget 300
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
from typing import List, Optional

from .analysis.dynamic import dynamic_census_table, run_census
from .analysis.frequency import analyze_program, frequency_table
from .harness.report import (
    render_blame_series,
    render_blame_table,
    render_retention_diff,
    render_series,
    render_step_mix,
    render_table,
    render_why_live,
)
from .harness.runner import run
from .harness.sweep import (
    SweepCellError,
    aggregate_metrics,
    aggregate_retention,
    aggregate_series,
    aggregate_traces,
    grid_cells,
    run_grid,
    series_from_outcomes,
)
from .machine.errors import SchemeError
from .machine.variants import ALL_MACHINES, STEPPERS
from .programs.corpus import load_corpus
from .reader import LexError, ParseError
from .space.asymptotics import fit_growth, is_bounded
from .space.meter import DEFAULT_CHECKPOINT_EVERY, ENGINES, METERS
from .syntax.expander import ExpandError
from .syntax.validate import ValidationError

#: Errors that belong to the program being run, not to this code: a
#: text that does not read, expand or validate, a run that gets stuck
#: or exhausts its step limit, a sweep cell that failed.  A command
#: reports one of these in one line on stderr and exits 1; any other
#: exception is a bug and keeps its traceback.
PROGRAM_ERRORS = (
    LexError,
    ParseError,
    ExpandError,
    ValidationError,
    SchemeError,
    SweepCellError,
)


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be at least {minimum}, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type for a count, limit, interval or cadence that must
    be at least 1; a bad value ends the command with a usage error."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse type for a count that may be 0: a profiler's cadence
    or a retry budget (0 is off), or a table's row limit."""
    return _int_at_least(text, 0)


def _positive_seconds(text: str) -> float:
    """argparse type for a finite, positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}"
        )
    return value


def _int_list(text: str) -> tuple:
    """argparse type for comma-separated integers (``--ns 8,16,32``)."""
    try:
        return tuple(int(n) for n in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want comma-separated integers, got {text!r}"
        )


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _output_path(base: str, ext: str, machine: str = "",
                 companion: str = "") -> str:
    """Where an export given the path *base* goes: *base* itself, or
    ``stem.MACHINE.ext`` when a command writes one file per machine
    (*stem* is *base* without *ext*).  A *companion* file written next
    to it (``.chrome.json`` beside a JSONL trace) is always
    ``stem[.MACHINE]companion``."""
    stem = base[: -len(ext)] if base.endswith(ext) else base
    tag = f".{machine}" if machine else ""
    if companion:
        return f"{stem}{tag}{companion}"
    return f"{stem}{tag}{ext}" if machine else base


def _export_trace(bus, base: str, machine: str = "", blame=None) -> None:
    """Write *bus* as JSONL to *base* and as a Chrome/Perfetto trace to
    ``stem.chrome.json`` (per machine: see :func:`_output_path`)."""
    from .telemetry.export import write_chrome_trace, write_jsonl

    jsonl_path = _output_path(base, ".jsonl", machine)
    chrome_path = _output_path(base, ".jsonl", machine, ".chrome.json")
    events = write_jsonl(bus, jsonl_path)
    write_chrome_trace(bus, chrome_path, blame=blame)
    print(
        f"; trace: {events} events -> {jsonl_path} (+ {chrome_path})",
        file=sys.stderr,
    )


def _print_retention(snapshot, scope: str, limit: int) -> None:
    """Print a peak retention snapshot: retained words per dominating
    root, then why-live paths to its largest retained cells; *scope*
    names the run in both titles."""
    print(render_blame_table(
        snapshot.root_retention(),
        total=snapshot.space,
        title=(
            f"retention at peak [{scope}, step {snapshot.step}] — "
            "retained words per dominating root"
        ),
        limit=limit,
    ))
    print(render_why_live(snapshot, top=3, title=f"why live [{scope}]"))


def _cmd_run(args: argparse.Namespace) -> int:
    source = _read_source(args.program)
    bus = None
    registry = None
    writer = None
    if args.trace_out or args.stream:
        from .telemetry.bus import TraceBus

        if args.stream:
            from .telemetry.export import JsonlStreamWriter

            writer = JsonlStreamWriter(
                args.stream, meta={"machine": args.machine}
            )
        # Streaming-only runs turn the ring off: the file is the record
        # and the run is constant-memory no matter how long it is.
        bus = TraceBus(sink=writer, retain=writer is None or bool(args.trace_out))
    if args.metrics:
        from .telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
    try:
        result = run(
            source,
            args.arg,
            machine=args.machine,
            meter=args.meter,
            linked=args.linked,
            fixed_precision=args.fixed_precision,
            step_limit=args.step_limit,
            stepper=args.stepper,
            gc_interval=args.gc_interval,
            trace=bus,
            metrics=registry,
        )
    finally:
        # Even when the run dies mid-trace, the streamed file must be
        # flushed, closed, and schema-valid.
        if writer is not None:
            events = writer.close(bus)
            print(f"; stream: {events} events -> {args.stream}",
                  file=sys.stderr)
    print(result.answer)
    if args.meter:
        print(
            f"; steps={result.steps} sup-space={result.sup_space} "
            f"S_{args.machine}={result.consumption}",
            file=sys.stderr,
        )
    if args.trace_out:
        _export_trace(bus, args.trace_out)
    if registry is not None:
        from .telemetry.export import write_metrics

        write_metrics(registry, args.metrics, machine=args.machine)
        print(f"; metrics -> {args.metrics}", file=sys.stderr)
    return 0


def _cmd_machines(args: argparse.Namespace) -> int:
    rows = []
    for name, cls in sorted(ALL_MACHINES.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        rows.append([name, doc])
    print(render_table(["machine", "description"], rows))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    rows = [
        analyze_program(path, _read_source(path)) for path in args.programs
    ]
    print(frequency_table(rows if rows else None))
    return 0


#: Default corpus slice for ``analyze --meter-audit``: allocation- and
#: mutation-heavy programs where the delta engine's collections, cycle
#: trials and the lazy schedule's trips are visible.
METER_AUDIT_PROGRAMS = ("fib", "sieve", "deriv", "destruct", "nqueens", "tak")


def _cmd_meter_audit(args: argparse.Namespace) -> int:
    from .programs.corpus import corpus_names, load_program
    from .space.consumption import measure

    names = args.programs or list(METER_AUDIT_PROGRAMS)
    bundled = set(corpus_names())
    rows = []
    for name in names:
        if name in bundled:
            entry = load_program(name)
            source, argument = entry.source, entry.default_input
        else:
            source, argument = _read_source(name), None
        for mode in METERS:
            # Linked accounting runs every layer of the engine: the
            # reference counts and the binding ledger.
            result = measure(
                args.machine,
                source,
                argument,
                linked=True,
                meter=mode,
                step_limit=2_000_000,
            )
            stats = result.meter_stats or {}
            rows.append([
                name,
                mode,
                result.steps,
                stats.get("collections", 0),
                stats.get("trials", 0),
                stats.get("canonical_fallbacks", 0),
                stats.get("root_updates", 0),
                stats.get("ledger_updates", 0),
                stats.get("trips", "-"),
                stats.get("bursts", "-"),
                stats.get("certified", "-"),
            ])
    print(render_table(
        [
            "program", "meter", "steps", "collect", "trials", "fallback",
            "roots", "ledger", "trips", "bursts", "cert",
        ],
        rows,
        title=(
            f"delta meter audit [{args.machine}] — linked accounting: "
            "collections, cycle trials, canonical fallbacks, root and "
            "ledger updates, exact vs sampled"
        ),
    ))
    return 0


#: Default program for ``analyze --retention``: the Theorem 25
#: gc-vs-tail separator, whose retention story is the paper's —
#: Return konts keeping environments live that tail-call deallocation
#: drops.
RETENTION_DEFAULT_PROGRAM = "gc-vs-tail"
RETENTION_DEFAULT_ARGUMENT = "48"


def _retention_source(name: str, argument: Optional[str]) -> "tuple":
    """Resolve an ``analyze --retention`` program name: a Theorem 25
    separator name, a bundled corpus name, or a file path."""
    from .programs.corpus import corpus_names, load_program
    from .programs.separators import SEPARATORS_BY_NAME

    if name in SEPARATORS_BY_NAME:
        return (
            SEPARATORS_BY_NAME[name].source,
            argument or RETENTION_DEFAULT_ARGUMENT,
        )
    if name in set(corpus_names()):
        entry = load_program(name)
        return entry.source, argument or entry.default_input
    return _read_source(name), argument


def _cmd_retention(args: argparse.Namespace) -> int:
    from .telemetry.retention import retention_diff, retention_run

    names = args.programs or [RETENTION_DEFAULT_PROGRAM]
    argument = getattr(args, "arg", None)
    for name in names:
        source, program_argument = _retention_source(name, argument)
        machines = [args.machine]
        if args.diff:
            machines.append(args.diff)
        snapshots = {}
        for machine in machines:
            _result, profiler = retention_run(
                machine,
                source,
                program_argument,
                fixed_precision=True,
                step_limit=2_000_000,
            )
            snapshots[machine] = profiler.at_peak
            _print_retention(profiler.at_peak, f"{name} on {machine}", 12)
        if args.diff:
            diff = retention_diff(
                snapshots[args.machine], snapshots[args.diff]
            )
            print(render_retention_diff(
                diff,
                left=args.machine,
                right=args.diff,
                title=(
                    f"retention diff [{name}: "
                    f"{args.machine} vs {args.diff}]"
                ),
            ))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if getattr(args, "meter_audit", False):
        return _cmd_meter_audit(args)
    if getattr(args, "retention", False):
        return _cmd_retention(args)
    if args.loops:
        from .analysis.loops import loop_candidates, loops_table

        if args.programs:
            rows = []
            for path in args.programs:
                rows.extend(loop_candidates(path, _read_source(path)))
            print(loops_table(rows))
        else:
            print(loops_table())
        return 0
    return _cmd_census(args)


def _cmd_dynamic(args: argparse.Namespace) -> int:
    if args.program:
        census = run_census(
            _read_source(args.program),
            args.arg,
            machine=args.machine,
            name=args.program,
        )
        print(dynamic_census_table([census]))
    else:
        print(dynamic_census_table())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    source = _read_source(args.program)
    ns = args.ns
    machines = args.machine.split(",")
    cells = grid_cells(
        {(machine,): source for machine in machines},
        ns,
        fixed_precision=args.fixed_precision,
        linked=args.linked,
        engine=args.engine,
        meter=args.meter,
        metrics=bool(args.metrics),
        trace_sample=args.trace_sample,
        blame_every=args.blame_every,
        retention_sample=args.retention_sample,
    )
    outcomes = run_grid(cells, jobs=args.jobs, timeout=args.timeout)
    by_machine = series_from_outcomes(outcomes)
    series = {}
    for machine in machines:
        totals = tuple(by_machine[(machine,)][n] for n in ns)
        label = machine
        if len(ns) >= 3 and max(ns) >= 2 * min(ns):
            if is_bounded(totals):
                label = f"{machine} [O(1)]"
            else:
                label = f"{machine} [{fit_growth(ns, totals).name}]"
        series[label] = list(totals)
    print(render_series(ns, series, title=f"S_X({args.program}, N)"))
    if args.metrics:
        from .telemetry.export import write_metrics

        merged = aggregate_metrics(outcomes)
        write_metrics(
            merged,
            args.metrics,
            program=args.program,
            machines=machines,
            ns=list(ns),
        )
        print(f"; metrics ({len(outcomes)} cells) -> {args.metrics}",
              file=sys.stderr)
    if args.trace_sample:
        folded = aggregate_traces(outcomes)
        print(
            f"; traces: {folded['events']} events over {folded['cells']} "
            f"cells, {folded['steps']} steps replayed, "
            f"sup-space {folded['sup_space']} at cell {folded['sup_cell']}",
            file=sys.stderr,
        )
    if args.blame_every:
        merged = aggregate_series(outcomes)
        print(render_blame_table(
            merged.totals(),
            title=(
                f"space blame over the grid "
                f"[{len(merged)} samples, summed]"
            ),
            limit=12,
        ))
    if args.retention_sample:
        merged = aggregate_retention(outcomes)
        print(render_blame_table(
            merged.totals(),
            title=(
                f"retained words per dominating root over the grid "
                f"[{len(merged)} samples, summed]"
            ),
            limit=12,
        ))
    if args.trace_out:
        from .telemetry.bus import TraceBus

        bus = TraceBus()
        bus.meta.update(program=args.program, grid=len(outcomes))
        for outcome in outcomes:
            key = ":".join(str(part) for part in outcome.cell.key)
            if outcome.result is not None:
                bus.emit_cell(f"total:{key}", outcome.result.total)
                bus.emit_cell(f"steps:{key}", outcome.result.steps)
        _export_trace(bus, args.trace_out)
    if args.history:
        from .harness.sweep import history_records
        from .serving.scheduler import SweepHistory

        records = history_records(outcomes)
        SweepHistory.append_jsonl(args.history, records)
        print(
            f"; history: {len(records)} point(s) -> {args.history}",
            file=sys.stderr,
        )
    return 0


def _print_fusion_suggestions(source, machine=None, top=None) -> None:
    """Rank the gen-2 fusion candidates over a recorded step mix."""
    from .telemetry.metrics import suggest_fusions

    scope = f" [{machine}]" if machine else ""
    suggestions = suggest_fusions(source, machine=machine, top=top)
    if not suggestions:
        print(f"no recorded steps to rank fusion candidates over{scope}")
        return
    rows = [
        [
            entry["fusion"],
            f"{100.0 * entry['share']:.1f}%",
            entry["steps"],
            "+".join(entry["kinds"]),
        ]
        for entry in suggestions
    ]
    print(render_table(
        ["fusion", "share", "steps", "covers"],
        rows,
        title=f"suggested fusions by corpus share{scope}",
    ))


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry.blame import trace_run
    from .telemetry.export import write_metrics
    from .telemetry.metrics import step_mix

    if args.metrics_in:
        # Feedback-loop mode: rank fusion candidates over a previously
        # recorded metrics dump instead of tracing a fresh run.  The
        # dump may hold several machines' counters; rank the aggregate.
        import json

        with open(args.metrics_in) as handle:
            document = json.load(handle)
        # write_metrics wraps the registry dump under "metrics" next to
        # run metadata; accept a bare registry dump too.
        dump = document.get("metrics", document)
        _print_fusion_suggestions(dump, top=args.top)
        return 0
    if not args.program:
        raise SystemExit(
            "trace: a program is required unless --metrics-in is given"
        )
    source = _read_source(args.program)
    machines = args.machine.split(",")
    for name in machines:
        if name not in ALL_MACHINES:
            raise SystemExit(f"unknown machine: {name!r}")
    accounting = "U" if args.linked else "S"
    retention_on = bool(args.retention_top or args.flamegraph)
    for name in machines:
        # Several machines write one file per machine.
        tag = name if len(machines) > 1 else ""
        writer = None
        if args.stream:
            from .telemetry.export import JsonlStreamWriter

            stream_path = _output_path(args.stream, ".jsonl", tag)
            writer = JsonlStreamWriter(stream_path, meta={"machine": name})
        try:
            session = trace_run(
                name,
                source,
                args.arg,
                linked=args.linked,
                fixed_precision=args.fixed_precision,
                stepper=args.stepper,
                engine=args.engine,
                gc_interval=args.gc_interval,
                step_limit=args.step_limit,
                sample=(
                    {"step": args.sample, "apply": args.sample}
                    if args.sample > 1 else None
                ),
                capacity=args.capacity,
                blame_every=args.blame_every,
                sink=writer,
                retain=writer is None or bool(args.trace_out),
                retention_every=1 if retention_on else 0,
            )
        finally:
            if writer is not None:
                events = writer.close()
                print(f"; stream: {events} events -> {stream_path}",
                      file=sys.stderr)
        result = session.result
        print(
            f"{name}: answer={session.extra['answer']} "
            f"steps={result.steps} sup-space={result.sup_space} "
            f"(at step {result.peak_step}) "
            f"{accounting}_{name}={result.consumption}"
        )
        mix = step_mix(session.metrics, machine=name)
        print(render_step_mix(mix, title=f"step mix [{name}]"))
        if args.suggest_fusions:
            _print_fusion_suggestions(
                session.metrics, machine=name, top=args.top
            )
        blame = session.blame
        print(render_blame_table(
            dict(blame.at_peak),
            total=blame.peak_space,
            title=(
                f"space blame at peak [{name}, "
                f"step {blame.peak_step}]"
            ),
            limit=args.top,
        ))
        if args.series:
            print(render_blame_series(
                blame.series(),
                top=args.series_top,
                title=f"space blame over time [{name}]",
            ))
        if retention_on:
            snapshot = session.retention.at_peak
            if args.retention_top:
                _print_retention(snapshot, name, args.retention_top)
            if args.flamegraph:
                from .telemetry.export import (
                    write_flamegraph,
                    write_retention_jsonl,
                )

                folded_path = _output_path(args.flamegraph, ".folded", tag)
                retention_path = _output_path(
                    args.flamegraph, ".folded", tag, ".retention.jsonl"
                )
                stacks = write_flamegraph(snapshot, folded_path)
                nodes = write_retention_jsonl(snapshot, retention_path)
                print(
                    f"; flamegraph: {stacks} stacks -> {folded_path} "
                    f"(+ {nodes} nodes -> {retention_path})",
                    file=sys.stderr,
                )
        if args.trace_out:
            _export_trace(session.bus, args.trace_out, tag, blame.series())
        if args.metrics:
            metrics_path = _output_path(args.metrics, ".json", tag)
            write_metrics(session.metrics, metrics_path, machine=name)
            print(f"; metrics -> {metrics_path}", file=sys.stderr)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .space.safety import check_space_safety

    report = check_space_safety(args.candidate, args.reference)
    print(report.summary())
    return 0 if report.safe else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    rows = [
        [program.name, program.default_input, len(program.source.splitlines())]
        for program in load_corpus()
    ]
    print(render_table(["program", "default input", "lines"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serving.server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        default_budget=args.default_budget,
        spool_dir=args.spool_dir,
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        history=args.history,
        artifact_capacity=args.artifact_cache,
    )

    def announce(line: str) -> None:
        print(line, flush=True)

    # SIGTERM stops the server the way Ctrl-C does, so the pool is shut
    # down below instead of orphaning its workers.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        asyncio.run(server.serve_forever(announce=announce))
    except KeyboardInterrupt:
        print("; interrupted, shutting down", file=sys.stderr)
    finally:
        server.close_sync()
    return 0


def _http_json(url: str, payload=None):
    """POST *payload* (or GET when None); returns (status, body dict)."""
    import json
    import urllib.error
    import urllib.request

    if payload is None:
        request = urllib.request.Request(url)
    else:
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


def _poll_job(url: str, job: str, poll_interval: float) -> int:
    """Poll one job to settlement, print its terminal receipt, and map
    the outcome through :data:`repro.serving.protocol.EXIT_CODES`."""
    import json
    import time as time_module

    while True:
        status, snapshot = _http_json(f"{url}/jobs/{job}")
        if status != 200:
            print(f"; poll failed ({status})", file=sys.stderr)
            return 1
        if snapshot["status"] not in ("queued", "running"):
            break
        time_module.sleep(poll_interval)
    receipt = snapshot["result"]
    print(json.dumps(receipt))
    if snapshot["status"] == "done":
        return 0
    if snapshot["status"] == "killed":
        print(
            f"; killed: consumption >= {receipt['consumption']} over "
            f"budget {receipt['budget']} (top holder: {receipt['holder']})",
            file=sys.stderr,
        )
        return 3
    if snapshot["status"] == "deferred":
        print(
            f"; deferred: predicted {receipt['predicted']} over budget "
            f"{receipt['budget']} ({receipt['growth']} from sweep history "
            f"at N={receipt['requested_n']})",
            file=sys.stderr,
        )
        return 4
    return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit to a running `repro serve`; exit codes are the
    :data:`repro.serving.protocol.EXIT_CODES` table (0 done, 1
    error/rejected, 3 quota-killed, 4 deferred).  A server that cannot
    be reached ends the command in one stderr line and exit 1."""
    import urllib.error

    if args.batch_args and args.arg is not None:
        raise SystemExit("submit: use --arg or --batch-args, not both")
    url = args.url.rstrip("/")
    try:
        return _submit(args, url)
    except urllib.error.URLError as error:
        print(f"repro submit: cannot reach {url}: {error.reason}",
              file=sys.stderr)
        return 1


def _submit(args: argparse.Namespace, url: str) -> int:
    import json

    source = _read_source(args.program)
    payload = {
        "program": source,
        "tenant": args.tenant,
        "machine": args.machine,
        "accounting": "linked" if args.linked else "flat",
        "engine": args.engine,
        "meter": args.meter,
        "checkpoint_every": args.checkpoint_every,
    }
    if args.budget is not None:
        payload["budget"] = args.budget
    if args.step_limit is not None:
        payload["step_limit"] = args.step_limit

    if args.batch_args:
        jobs = []
        for argument in args.batch_args.split(","):
            member = dict(payload)
            member["argument"] = argument.strip()
            jobs.append(member)
        status, body = _http_json(f"{url}/submit", {"jobs": jobs})
        if status != 202:
            print(f"; rejected ({status}): {body.get('reason')}",
                  file=sys.stderr)
            print(json.dumps(body))
            return 1
        entries = body["jobs"]
        ids = [entry["job"] for entry in entries]
        print(
            f"; submitted batch of {len(ids)}: {ids[0]}..{ids[-1]} "
            f"(budget={entries[0].get('budget')})",
            file=sys.stderr,
        )
        if args.no_poll:
            print(json.dumps(body))
            return 0
        code = 0
        for job in ids:
            code = max(code, _poll_job(url, job, args.poll_interval))
        return code

    if args.arg is not None:
        payload["argument"] = args.arg
    status, body = _http_json(f"{url}/submit", payload)
    if status != 202:
        print(f"; rejected ({status}): {body.get('reason')}", file=sys.stderr)
        print(json.dumps(body))
        return 1
    job = body["job"]
    print(f"; submitted {job} (budget={body.get('budget')})", file=sys.stderr)
    if args.no_poll:
        print(json.dumps(body))
        return 0
    return _poll_job(url, job, args.poll_interval)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reference implementations and space-complexity classes from "
            "Clinger's 'Proper Tail Recursion and Space Efficiency' "
            "(PLDI 1998)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a Scheme program")
    run_parser.add_argument("program", help="path to a .scm file, or -")
    run_parser.add_argument("--arg", help="input expression D for (P D)")
    run_parser.add_argument(
        "--machine", default="tail", choices=sorted(ALL_MACHINES)
    )
    run_parser.add_argument(
        "--meter", action="store_true",
        help="run a Definition 21 space-efficient computation and report S_X",
    )
    run_parser.add_argument("--linked", action="store_true",
                            help="Figure 8 (linked) accounting")
    run_parser.add_argument("--fixed-precision", action="store_true",
                            help="charge every number one word")
    run_parser.add_argument(
        "--step-limit", type=_positive_int, default=5_000_000
    )
    run_parser.add_argument(
        "--stepper", default="annotated", choices=STEPPERS,
        help="transition function: the fused gen-2 stepper "
        "(annotated) or the preserved seed stepper (seed) — identical "
        "semantics",
    )
    run_parser.add_argument(
        "--gc-interval", type=_positive_int, default=1,
        help="collect every k-th step on metered runs (default 1)",
    )
    run_parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write the run's event stream to PATH (JSONL) and "
        "PATH-stem.chrome.json (Chrome/Perfetto trace)",
    )
    run_parser.add_argument(
        "--metrics", metavar="PATH",
        help="write a metrics registry dump (JSON) to PATH",
    )
    run_parser.add_argument(
        "--stream", metavar="PATH",
        help="stream events to PATH (JSONL) as they are emitted; "
        "without --trace-out the ring is disabled, so arbitrarily "
        "long runs trace in constant memory",
    )
    run_parser.set_defaults(handler=_cmd_run)

    machines_parser = commands.add_parser(
        "machines", help="list the reference implementations"
    )
    machines_parser.set_defaults(handler=_cmd_machines)

    census_parser = commands.add_parser(
        "census",
        help="Figure 2 static tail-call statistics "
        "(bundled corpus when no files given)",
    )
    census_parser.add_argument("programs", nargs="*")
    census_parser.set_defaults(handler=_cmd_census)

    analyze_parser = commands.add_parser(
        "analyze",
        help="static program analyses: Figure 2 statistics by "
        "default, the self-tail-loop audit with --loops "
        "(bundled corpus when no files given)",
    )
    analyze_parser.add_argument("programs", nargs="*")
    analyze_parser.add_argument(
        "--loops", action="store_true",
        help="ranked table of self-tail-loop candidates: each "
        "lambda's self-tail back edges and its tail and total calls",
    )
    analyze_parser.add_argument(
        "--meter-audit", action="store_true",
        help="run the delta metering engine under both meters over "
        "corpus programs (or the given files), linked accounting, and "
        "report its collections, cycle trials, canonical fallbacks, "
        "root and ledger updates, and the sampled meter's trips, "
        "checkpoints and certification",
    )
    analyze_parser.add_argument(
        "--machine", default="gc", choices=sorted(ALL_MACHINES),
        help="machine for --meter-audit and --retention runs "
        "(default gc)",
    )
    analyze_parser.add_argument(
        "--retention", action="store_true",
        help="why-live retention analysis: run the program(s) — "
        "Theorem 25 separator names, corpus names, or files; default "
        f"{RETENTION_DEFAULT_PROGRAM!r} — under the exact meter and "
        "print the peak configuration's retained words per dominating "
        "root plus shortest why-live root paths for the "
        "largest-retained store cells",
    )
    analyze_parser.add_argument(
        "--diff", metavar="MACHINE", choices=sorted(ALL_MACHINES),
        help="with --retention: also run MACHINE and print the "
        "per-root-class retained diff (the gc-vs-tail separator gap "
        "is exactly the vanished Return-kont rows)",
    )
    analyze_parser.add_argument(
        "--arg", help="input expression for --retention runs "
        "(defaults per program)",
    )
    analyze_parser.set_defaults(handler=_cmd_analyze)

    dynamic_parser = commands.add_parser(
        "dynamic", help="runtime tail-call census"
    )
    dynamic_parser.add_argument("program", nargs="?")
    dynamic_parser.add_argument("--arg")
    dynamic_parser.add_argument(
        "--machine", default="tail", choices=sorted(ALL_MACHINES)
    )
    dynamic_parser.set_defaults(handler=_cmd_dynamic)

    sweep_parser = commands.add_parser(
        "sweep", help="measure S_X(P, N) over a range of N"
    )
    sweep_parser.add_argument("program")
    sweep_parser.add_argument("--ns", type=_int_list, default="8,16,32,64")
    sweep_parser.add_argument(
        "--machine", default="tail,gc",
        help="comma-separated machine names",
    )
    sweep_parser.add_argument("--linked", action="store_true")
    sweep_parser.add_argument(
        "--fixed-precision", action="store_true", default=True
    )
    sweep_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the measurement grid (default serial)",
    )
    sweep_parser.add_argument(
        "--timeout", type=_positive_seconds, default=None,
        help="per-cell timeout in seconds (parallel runs only)",
    )
    sweep_parser.add_argument(
        "--engine", default="delta", choices=ENGINES,
        help="metering engine (all report identical numbers)",
    )
    sweep_parser.add_argument(
        "--meter", default="sampled", choices=METERS,
        help="space meter: sampled (the default; identical numbers, "
        "exact measurement only where its bound passes the running sup "
        "and at allocation bursts; cells with per-cell telemetry run "
        "exactly) or exact (measure every transition, the Definition "
        "21 schedule made observable)",
    )
    sweep_parser.add_argument(
        "--metrics", metavar="PATH",
        help="collect per-cell metrics in the workers, aggregate them "
        "across the grid, and write the merged dump (JSON) to PATH",
    )
    sweep_parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write one summary event per grid cell to PATH (JSONL) "
        "and PATH-stem.chrome.json",
    )
    sweep_parser.add_argument(
        "--trace-sample", type=_non_negative_int, default=0, metavar="K",
        help="attach a sampled TraceBus to every cell (keep every K-th "
        "step/apply event) and ship the events back over the worker "
        "channel; prints the aggregated replay summary",
    )
    sweep_parser.add_argument(
        "--blame-every", type=_non_negative_int, default=0, metavar="K",
        help="attach a blame profiler to every cell (decompose every "
        "K-th measured configuration), ship the per-cell BlameSeries "
        "back, and print the merged who-holds-the-space table",
    )
    sweep_parser.add_argument(
        "--retention-sample", type=_non_negative_int, default=0,
        metavar="K",
        help="attach a why-live retention profiler to every cell "
        "(snapshot every K-th measured configuration), ship the "
        "per-cell per-root retained-size series back, and print the "
        "merged retained-words-per-root table",
    )
    sweep_parser.add_argument(
        "--history", metavar="PATH",
        help="append every measured (N, consumption) point to PATH "
        "(JSONL) — the sweep-history file `repro serve --history` "
        "feeds the predictive quota scheduler from",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    trace_parser = commands.add_parser(
        "trace",
        help="run with the full telemetry stack: step mix, space "
        "blame at the peak, exported trace/metrics",
    )
    trace_parser.add_argument(
        "program", nargs="?",
        help="path to a .scm file, or - (optional with --metrics-in)",
    )
    trace_parser.add_argument("--arg", help="input expression D for (P D)")
    trace_parser.add_argument(
        "--machine", default="tail",
        help="comma-separated machine names",
    )
    trace_parser.add_argument("--linked", action="store_true",
                              help="Figure 8 (linked) accounting")
    trace_parser.add_argument("--fixed-precision", action="store_true")
    trace_parser.add_argument(
        "--stepper", default="annotated", choices=STEPPERS,
        help="transition function (see run --help); a traced run steps "
        "one transition at a time",
    )
    trace_parser.add_argument("--engine", default="delta", choices=ENGINES)
    trace_parser.add_argument("--gc-interval", type=_positive_int, default=1)
    trace_parser.add_argument(
        "--step-limit", type=_positive_int, default=5_000_000
    )
    trace_parser.add_argument(
        "--sample", type=_positive_int, default=1,
        help="keep every k-th step/apply event (space, gc, and phase "
        "events are never sampled away)",
    )
    trace_parser.add_argument(
        "--capacity", type=_positive_int, default=None,
        help="bound the event buffer (ring semantics: oldest dropped)",
    )
    trace_parser.add_argument(
        "--blame-every", type=_positive_int, default=1,
        help="decompose every k-th measured configuration",
    )
    trace_parser.add_argument(
        "--top", type=_non_negative_int, default=12,
        help="blame table rows before folding into '(other)'",
    )
    trace_parser.add_argument(
        "--series", action="store_true",
        help="render the per-holder space time-series as stacked "
        "sparklines (who holds the space, and when)",
    )
    trace_parser.add_argument(
        "--series-top", type=_non_negative_int, default=6,
        help="sparkline rows before folding into '(other)'",
    )
    trace_parser.add_argument(
        "--retention-top", type=_non_negative_int, default=0, metavar="K",
        help="attach the why-live retention profiler and print the "
        "top-K dominating roots (retained words partitioning the "
        "peak space exactly) plus why-live root paths",
    )
    trace_parser.add_argument(
        "--flamegraph", metavar="OUT",
        help="write the peak configuration's retention dominator tree "
        "as folded flamegraph stacks to OUT (flamegraph.pl/speedscope "
        "input; weights sum to the peak space) and the full node "
        "table to OUT-stem.retention.jsonl",
    )
    trace_parser.add_argument("--trace-out", metavar="PATH")
    trace_parser.add_argument("--metrics", metavar="PATH")
    trace_parser.add_argument(
        "--stream", metavar="PATH",
        help="stream events to PATH (JSONL) as they are emitted; "
        "without --trace-out the ring is disabled (constant memory)",
    )
    trace_parser.add_argument(
        "--suggest-fusions", action="store_true",
        help="rank candidate superinstructions by their share of the "
        "recorded step mix (the gen-2 stepper feedback loop)",
    )
    trace_parser.add_argument(
        "--metrics-in", metavar="PATH",
        help="rank fusion candidates over a previously written "
        "--metrics dump instead of tracing a fresh run",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    corpus_parser = commands.add_parser(
        "corpus", help="list the bundled benchmark corpus"
    )
    corpus_parser.set_defaults(handler=_cmd_corpus)

    audit_parser = commands.add_parser(
        "audit",
        help="space-safety audit: is CANDIDATE within O(S_REFERENCE)? "
        "(exit status 1 when not)",
    )
    audit_parser.add_argument("candidate", choices=sorted(ALL_MACHINES))
    audit_parser.add_argument(
        "reference", nargs="?", default="tail", choices=sorted(ALL_MACHINES)
    )
    audit_parser.set_defaults(handler=_cmd_audit)

    serve_parser = commands.add_parser(
        "serve",
        help="evaluation service: HTTP submit/poll/stream with "
        "space-quota admission control",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is announced)",
    )
    serve_parser.add_argument(
        "--workers", type=_positive_int, default=2,
        help="worker processes",
    )
    serve_parser.add_argument(
        "--max-pending", type=_positive_int, default=8,
        help="per-tenant bounded queue (429 past this)",
    )
    serve_parser.add_argument(
        "--default-budget", type=int, default=None,
        help="space budget (words of consumption) for submits that "
        "carry none; omit for unmetered admission",
    )
    serve_parser.add_argument(
        "--spool-dir", default=None,
        help="directory for per-job JSONL receipt spools",
    )
    serve_parser.add_argument(
        "--max-retries", type=_non_negative_int, default=1,
        help="re-queue a job this many times when its worker dies",
    )
    serve_parser.add_argument(
        "--job-timeout", type=_positive_seconds, default=None,
        help="kill a job's worker after this many seconds",
    )
    serve_parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="seed the predictive quota scheduler from a `repro sweep "
        "--history` JSONL file (the service also learns from its own "
        "completed runs)",
    )
    serve_parser.add_argument(
        "--artifact-cache", type=_positive_int, default=64, metavar="N",
        help="capacity of the content-addressed compiled-program "
        "cache (entries)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    from .serving.protocol import EXIT_CODES

    exit_code_lines = "\n".join(
        f"  {code}  {name:<15} {meaning}"
        for code, name, meaning in EXIT_CODES
    )
    submit_parser = commands.add_parser(
        "submit",
        help="client for `repro serve`: submit a program (or a "
        "--batch-args batch), poll to the terminal receipt "
        "(exit 3 on a quota kill, 4 when deferred)",
        epilog="exit codes:\n" + exit_code_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    submit_parser.add_argument("program", help="path to a .scm file, or -")
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8000", help="server base URL"
    )
    submit_parser.add_argument("--arg", help="input expression")
    submit_parser.add_argument(
        "--batch-args", metavar="N1,N2,...",
        help="submit one batch with the same program over several "
        "arguments (one POST, one worker round-trip; receipts stay "
        "per-job); exit code is the worst member's",
    )
    submit_parser.add_argument(
        "--machine", default="tail", choices=sorted(ALL_MACHINES)
    )
    submit_parser.add_argument(
        "--linked", action="store_true",
        help="Figure 8 linked (U_X) accounting instead of flat",
    )
    submit_parser.add_argument(
        "--engine", default="delta", choices=ENGINES
    )
    submit_parser.add_argument(
        "--meter", default="sampled", choices=METERS
    )
    submit_parser.add_argument(
        "--checkpoint-every", type=_positive_int,
        default=DEFAULT_CHECKPOINT_EVERY, metavar="K",
        help="heartbeat cadence: the meter reports progress every K "
        f"transitions (default {DEFAULT_CHECKPOINT_EVERY})",
    )
    submit_parser.add_argument(
        "--budget", type=int, default=None,
        help="space budget in words of Definition 23 consumption",
    )
    submit_parser.add_argument(
        "--step-limit", type=_positive_int, default=None
    )
    submit_parser.add_argument("--tenant", default="anonymous")
    submit_parser.add_argument(
        "--no-poll", action="store_true",
        help="print the 202 body and exit instead of polling",
    )
    submit_parser.add_argument(
        "--poll-interval", type=_positive_seconds, default=0.2
    )
    submit_parser.set_defaults(handler=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PROGRAM_ERRORS as error:
        print(f"{parser.prog} {args.command}: {type(error).__name__}: "
              f"{error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
