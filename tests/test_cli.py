"""CLI tests (driven in-process through repro.cli.main)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.scm"
    path.write_text("(define (f n) (if (zero? n) 0 (f (- n 1))))\n")
    return str(path)


class TestRunCommand:
    def test_run_with_argument(self, loop_file, capsys):
        assert main(["run", loop_file, "--arg", "10"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_run_expression_only(self, tmp_path, capsys):
        path = tmp_path / "e.scm"
        path.write_text("(+ 1 2)\n")
        main(["run", str(path)])
        assert capsys.readouterr().out.strip() == "3"

    def test_run_metered_reports_space(self, loop_file, capsys):
        main(["run", loop_file, "--arg", "5", "--meter"])
        captured = capsys.readouterr()
        assert captured.out.strip() == "0"
        assert "sup-space=" in captured.err

    def test_run_on_other_machine(self, loop_file, capsys):
        main(["run", loop_file, "--arg", "5", "--machine", "gc"])
        assert capsys.readouterr().out.strip() == "0"

    def test_run_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(* 3 4)"))
        main(["run", "-"])
        assert capsys.readouterr().out.strip() == "12"

    def test_run_stepper_and_gc_interval_knobs(self, loop_file, capsys):
        main(["run", loop_file, "--arg", "5", "--meter",
              "--stepper", "seed", "--gc-interval", "2"])
        captured = capsys.readouterr()
        assert captured.out.strip() == "0"
        assert "sup-space=" in captured.err

    def test_run_trace_out_writes_both_formats(
        self, loop_file, tmp_path, capsys
    ):
        from repro.telemetry.export import (
            validate_chrome_trace,
            validate_jsonl,
        )

        out = tmp_path / "run.jsonl"
        main(["run", loop_file, "--arg", "5", "--meter",
              "--trace-out", str(out)])
        assert validate_jsonl(out)["events"] > 0
        assert validate_chrome_trace(tmp_path / "run.chrome.json")[
            "events"] > 0
        assert "trace:" in capsys.readouterr().err

    def test_run_metrics_dump(self, loop_file, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        main(["run", loop_file, "--arg", "5", "--meter",
              "--metrics", str(out)])
        payload = json.loads(out.read_text())
        assert "steps_total{machine=tail}" in payload["metrics"]["counters"]

    @pytest.mark.parametrize("retired", ["gen3", "gen2"])
    def test_run_rejects_retired_stepper(self, loop_file, retired, capsys):
        """The stepper choices are the live stepper and the seed: a
        retired tier name is a usage error (exit 2)."""
        with pytest.raises(SystemExit) as caught:
            main(["run", loop_file, "--arg", "5", "--stepper", retired])
        assert caught.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_seed_stepper_matches_live_answer(self, loop_file, capsys):
        """Unmetered runs through both steppers print the same answer
        (the lockstep guarantee, visible at the CLI surface)."""
        main(["run", loop_file, "--arg", "12"])
        live = capsys.readouterr().out.strip()
        main(["run", loop_file, "--arg", "12", "--stepper", "seed"])
        assert capsys.readouterr().out.strip() == live == "0"

    def test_run_gc_interval_with_metrics_dump(
        self, loop_file, tmp_path, capsys
    ):
        """A relaxed collection schedule changes when space is
        reclaimed, never the answer or the recorded step total."""
        import json

        dumps = {}
        for interval in ("1", "4"):
            out = tmp_path / f"m{interval}.json"
            main(["run", loop_file, "--arg", "9", "--meter",
                  "--gc-interval", interval, "--metrics", str(out)])
            assert capsys.readouterr().out.strip() == "0"
            dumps[interval] = json.loads(out.read_text())["metrics"]
        key = "steps_total{machine=tail}"
        assert dumps["1"]["counters"][key] == dumps["4"]["counters"][key]


class TestOtherCommands:
    def test_machines(self, capsys):
        main(["machines"])
        out = capsys.readouterr().out
        for name in ("tail", "gc", "stack", "evlis", "free", "sfs", "bigloo"):
            assert name in out

    def test_census_of_corpus(self, capsys):
        main(["census"])
        assert "TOTAL" in capsys.readouterr().out

    def test_census_of_file(self, loop_file, capsys):
        main(["census", loop_file])
        out = capsys.readouterr().out
        assert "loop.scm" in out

    def test_dynamic_census_of_file(self, loop_file, capsys):
        main(["dynamic", loop_file, "--arg", "10"])
        out = capsys.readouterr().out
        assert "tail%" in out

    def test_sweep(self, loop_file, capsys):
        main(["sweep", loop_file, "--ns", "8,16,32", "--machine", "tail,gc"])
        out = capsys.readouterr().out
        assert "tail" in out and "gc" in out
        assert "O(" in out

    def test_sweep_metrics_aggregation(self, loop_file, tmp_path, capsys):
        import json

        out = tmp_path / "sweep-metrics.json"
        main(["sweep", loop_file, "--ns", "5,10", "--machine", "gc",
              "--metrics", str(out)])
        payload = json.loads(out.read_text())
        assert payload["machines"] == ["gc"]
        assert payload["metrics"]["counters"]["gc_collections{machine=gc}"] > 0

    def test_sweep_jobs_metrics_equal_sum_of_cells(
        self, loop_file, tmp_path, capsys
    ):
        """Parallel sweep (--jobs) under metrics dumping: the merged
        registry written by the CLI equals the fold of the per-cell
        dumps computed in-process (counters add; nothing is lost or
        double-counted across worker processes)."""
        import json

        from repro.harness.sweep import grid_cells, run_grid
        from repro.telemetry.metrics import MetricsRegistry

        source = open(loop_file).read()
        ns = (4, 8, 12)
        out = tmp_path / "jobs-metrics.json"
        main(["sweep", loop_file, "--ns", ",".join(map(str, ns)),
              "--machine", "tail,gc", "--jobs", "2",
              "--metrics", str(out)])
        merged = json.loads(out.read_text())["metrics"]

        cells = grid_cells(
            {("tail",): source, ("gc",): source}, ns,
            fixed_precision=True, metrics=True,
        )
        outcomes = run_grid(cells, jobs=1)
        expected = MetricsRegistry.merge(
            outcome.metrics for outcome in outcomes
            if outcome.metrics is not None
        )
        assert merged["counters"] == expected["counters"]
        assert merged["gauges"] == expected["gauges"]

    def test_analyze_loops_table(self, capsys):
        """The self-tail-loop audit's static columns, and fib's row."""
        assert main(["analyze", "--loops"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "program        procedure        arity sites  tail calls"
        )
        assert (
            "fib            loop                 3     1     1     4"
            in lines
        )
        assert lines[-1] == "40 candidate(s)"

    def test_corpus_listing(self, capsys):
        main(["corpus"])
        out = capsys.readouterr().out
        assert "tak" in out and "cpstak" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_audit_safe_machine_exits_zero(self, capsys):
        assert main(["audit", "sfs", "tail"]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_audit_unsafe_machine_exits_one(self, capsys):
        assert main(["audit", "gc", "tail"]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestMeterAuditCommand:
    def test_meter_audit_table_shape(self, loop_file, capsys):
        assert main(["analyze", "--meter-audit", loop_file,
                     "--machine", "gc"]) == 0
        out = capsys.readouterr().out
        assert "delta meter audit [gc]" in out
        for column in ("program", "meter", "steps", "collect", "trials",
                       "fallback", "roots", "ledger", "trips", "checkpts",
                       "cert"):
            assert column in out
        # One exact row and one sampled row per program.
        assert sum(line.split()[1] == "exact"
                   for line in out.splitlines() if "loop.scm" in line) == 1
        assert sum(line.split()[1] == "sampled"
                   for line in out.splitlines() if "loop.scm" in line) == 1

    def test_meter_audit_exact_and_sampled_agree_on_steps(
        self, capsys
    ):
        """The audit's honesty check, visible at the CLI surface: for
        the same corpus program the exact and sampled meters report the
        same transition count (the sampled meter skips measurements,
        never steps)."""
        assert main(["analyze", "--meter-audit", "fib",
                     "--machine", "gc"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith("fib")]
        assert len(rows) == 2
        steps = {row[1]: int(row[2]) for row in rows}
        assert steps["exact"] == steps["sampled"]

    def test_sampled_meter_with_telemetry_runs_eagerly(self, loop_file):
        """Telemetry needs every configuration, so a sampled run that
        carries it takes the eager schedule — same numbers as the
        exact meter, no refusal."""
        from repro.space.consumption import measure
        from repro.telemetry.blame import BlameProfiler

        source = open(loop_file).read()
        runs = {
            meter: measure("gc", source, "5", meter=meter,
                           blame=BlameProfiler())
            for meter in ("exact", "sampled")
        }
        assert runs["sampled"].meter_stats["mode"] == "exact"
        assert (runs["sampled"].total, runs["sampled"].steps) == (
            runs["exact"].total, runs["exact"].steps
        )


class TestRetentionCommands:
    def test_analyze_retention_prints_roots_and_paths(
        self, loop_file, capsys
    ):
        assert main(["analyze", "--retention", loop_file,
                     "--machine", "gc", "--arg", "16"]) == 0
        out = capsys.readouterr().out
        assert "retention at peak [" in out
        assert "retained words per dominating root" in out
        assert "kont:Return" in out
        assert "why live [" in out
        assert "root env:register rib f" in out
        assert "[alloc " in out

    def test_analyze_retention_diff_names_the_vanished_roots(
        self, loop_file, capsys
    ):
        assert main(["analyze", "--retention", loop_file,
                     "--machine", "gc", "--diff", "tail",
                     "--arg", "24"]) == 0
        out = capsys.readouterr().out
        assert "retention diff [" in out
        assert "gc retained" in out and "tail retained" in out
        assert "vanished on tail: kont:Return" in out

    def test_analyze_retention_defaults_to_the_separator(self, capsys):
        assert main(["analyze", "--retention"]) == 0
        out = capsys.readouterr().out
        assert "gc-vs-tail on gc" in out

    def test_trace_retention_top_prints_table_and_paths(
        self, loop_file, capsys
    ):
        assert main(["trace", loop_file, "--arg", "12", "--machine", "gc",
                     "--retention-top", "4"]) == 0
        out = capsys.readouterr().out
        assert "retention at peak [gc" in out
        assert "why live [gc]" in out

    def test_trace_flamegraph_writes_valid_artifacts(
        self, loop_file, tmp_path, capsys
    ):
        from repro.telemetry.export import (
            validate_flamegraph,
            validate_retention_jsonl,
        )

        out = tmp_path / "peak.folded"
        assert main(["trace", loop_file, "--arg", "12", "--machine", "gc",
                     "--flamegraph", str(out)]) == 0
        assert "flamegraph:" in capsys.readouterr().err
        folded = validate_flamegraph(out)
        jsonl = validate_retention_jsonl(tmp_path / "peak.retention.jsonl")
        # Both artifacts carry the same exact partition of the peak.
        assert folded["total"] == jsonl["space"] > 0

    def test_trace_flamegraph_per_machine_suffixes(
        self, loop_file, tmp_path, capsys
    ):
        from repro.telemetry.export import validate_flamegraph

        out = tmp_path / "peak.folded"
        assert main(["trace", loop_file, "--arg", "8",
                     "--machine", "tail,gc",
                     "--flamegraph", str(out)]) == 0
        assert validate_flamegraph(tmp_path / "peak.tail.folded")["total"] > 0
        assert validate_flamegraph(tmp_path / "peak.gc.folded")["total"] > 0

    def test_sweep_retention_sample_prints_grid_table(
        self, loop_file, capsys
    ):
        assert main(["sweep", loop_file, "--ns", "4,8", "--machine", "gc",
                     "--retention-sample", "4"]) == 0
        out = capsys.readouterr().out
        assert "retained words per dominating root over the grid" in out
        assert "samples, summed" in out

    def test_sweep_sampled_meter_with_retention_sample_runs_eagerly(
        self, loop_file, capsys
    ):
        from repro.harness.sweep import SweepCell, run_cell

        outputs = {}
        for meter in ("exact", "sampled"):
            assert main(["sweep", loop_file, "--ns", "4,8",
                         "--machine", "gc", "--meter", meter,
                         "--retention-sample", "4"]) == 0
            outputs[meter] = capsys.readouterr().out
        assert outputs["sampled"] == outputs["exact"]
        outcome = run_cell(SweepCell(
            key=("gc",), machine="gc", program=open(loop_file).read(),
            argument="8", meter="sampled", retention_sample=4,
        ))
        assert outcome.result.meter_stats["mode"] == "exact"


class TestTraceCommand:
    def test_trace_prints_mix_and_blame(self, loop_file, capsys):
        assert main(["trace", loop_file, "--arg", "10",
                     "--machine", "gc"]) == 0
        out = capsys.readouterr().out
        assert "step mix [gc]" in out
        assert "space blame at peak [gc" in out
        assert "kont:Return" in out
        assert "TOTAL" in out

    def test_trace_exports_per_machine(self, loop_file, tmp_path, capsys):
        from repro.telemetry.export import (
            validate_chrome_trace,
            validate_jsonl,
        )

        exports = tmp_path / "exports"
        exports.mkdir()
        main(["trace", loop_file, "--arg", "5", "--machine", "tail,gc",
              "--trace-out", str(exports / "t.jsonl"),
              "--metrics", str(exports / "m.json")])
        for machine in ("tail", "gc"):
            assert validate_jsonl(exports / f"t.{machine}.jsonl")[
                "events"] > 0
            assert validate_chrome_trace(exports / f"t.{machine}.chrome.json")
            dump = json.loads((exports / f"m.{machine}.json").read_text())
            assert dump["machine"] == machine
        assert sorted(path.name for path in exports.iterdir()) == [
            "m.gc.json", "m.tail.json", "t.gc.chrome.json", "t.gc.jsonl",
            "t.tail.chrome.json", "t.tail.jsonl",
        ]

    def test_trace_rejects_unknown_machine(self, loop_file):
        with pytest.raises(SystemExit):
            main(["trace", loop_file, "--machine", "nope"])

    def test_trace_sampling_and_linked(self, loop_file, capsys):
        assert main(["trace", loop_file, "--arg", "8", "--machine", "sfs",
                     "--linked", "--sample", "4", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "U_sfs=" in out
        assert "(other:" in out

    def test_trace_suggest_fusions_live(self, loop_file, capsys):
        assert main(["trace", loop_file, "--arg", "10", "--machine", "tail",
                     "--suggest-fusions"]) == 0
        out = capsys.readouterr().out
        assert "suggested fusions by corpus share [tail]" in out
        # A pure tail loop is Var/If/Call-heavy: the quickening and
        # if-select candidates must surface.
        assert "quicken-var" in out
        assert "if-select" in out

    def test_trace_suggest_fusions_from_metrics_dump(
        self, loop_file, tmp_path, capsys
    ):
        """The feedback loop: a --metrics dump written by one
        invocation feeds --metrics-in on a later one (no re-run)."""
        dump = tmp_path / "mix.json"
        assert main(["trace", loop_file, "--arg", "10", "--machine", "gc",
                     "--metrics", str(dump)]) == 0
        capsys.readouterr()
        assert main(["trace", "--metrics-in", str(dump),
                     "--suggest-fusions"]) == 0
        out = capsys.readouterr().out
        assert "suggested fusions by corpus share" in out
        assert "nested-primop-call" in out

    def test_trace_requires_program_or_metrics_in(self):
        with pytest.raises(SystemExit, match="metrics-in"):
            main(["trace", "--suggest-fusions"])

    def test_trace_series_renders_sparklines(self, loop_file, capsys):
        assert main(["trace", loop_file, "--arg", "30", "--machine", "gc",
                     "--series", "--series-top", "4"]) == 0
        out = capsys.readouterr().out
        assert "space blame over time [gc]" in out
        assert "samples" in out and "stride" in out
        assert "accounting flat" in out
        # The dominant holder gets a sparkline row ending in its peak.
        assert "kont:Return" in out

    def test_trace_stream_writes_valid_jsonl(self, loop_file, tmp_path,
                                             capsys):
        from repro.telemetry.bus import replay
        from repro.telemetry.export import read_jsonl, validate_jsonl

        out = tmp_path / "s.jsonl"
        assert main(["trace", loop_file, "--arg", "10", "--machine", "gc",
                     "--stream", str(out)]) == 0
        err = capsys.readouterr().err
        assert "stream:" in err
        info = validate_jsonl(out)
        assert info["events"] > 0
        assert replay(read_jsonl(out)).steps > 0

    def test_trace_stream_per_machine_suffixes(self, loop_file, tmp_path,
                                               capsys):
        from repro.telemetry.export import validate_jsonl

        out = tmp_path / "s.jsonl"
        assert main(["trace", loop_file, "--arg", "5",
                     "--machine", "tail,gc", "--stream", str(out)]) == 0
        assert validate_jsonl(tmp_path / "s.tail.jsonl")["events"] > 0
        assert validate_jsonl(tmp_path / "s.gc.jsonl")["events"] > 0


class TestStreamingRunCommand:
    def test_run_stream_writes_valid_jsonl(self, loop_file, tmp_path,
                                           capsys):
        from repro.telemetry.export import validate_jsonl

        out = tmp_path / "run.jsonl"
        assert main(["run", loop_file, "--arg", "10", "--meter",
                     "--machine", "gc", "--stream", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "0"
        assert "stream:" in captured.err
        info = validate_jsonl(out)
        assert info["events"] > 0
        assert info["meta"]["closing"] is True

    def test_run_stream_equals_ring_export(self, loop_file, tmp_path,
                                           capsys):
        """The streamed file and the buffered --trace-out export carry
        the same replay summary for the same run."""
        from repro.telemetry.bus import replay
        from repro.telemetry.export import read_jsonl

        streamed = tmp_path / "stream.jsonl"
        ring = tmp_path / "ring.jsonl"
        main(["run", loop_file, "--arg", "8", "--meter", "--machine", "gc",
              "--stream", str(streamed)])
        main(["run", loop_file, "--arg", "8", "--meter", "--machine", "gc",
              "--trace-out", str(ring)])
        assert replay(read_jsonl(streamed)) == replay(read_jsonl(ring))


def _repro(*argv, stdin):
    """Run ``python -m repro`` in a fresh process, as a user does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], input=stdin,
        capture_output=True, text=True, env=env, timeout=120,
    )


#: One malformed or failing program per kind of program error, with
#: the error ``repro run`` and ``repro trace`` must report.
PROGRAM_ERROR_CASES = [
    ("(define (f n) (+ n 1)", "ParseError: unterminated list"),
    ('(define (f n) "abc', "LexError: unterminated string"),
    ("(define (f n) (if))", "ExpandError: malformed if"),
    ("(define (f n) (g n))", "ValidationError: free variables"),
    ("(define (f n) (+ n ²))", "ValidationError: free variables"),
    ("(define (f n) (car n))", "PrimitiveError: car: not a pair"),
    ("(define (f n) (f n))", "StepLimitExceeded: no final configuration"),
]


class TestProgramErrors:
    """A program's own error ends a command with one line on stderr
    and exit 1, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("source,message", PROGRAM_ERROR_CASES)
    def test_program_error_is_one_line(self, command, source, message):
        done = _repro(command, "-", "--arg", "8", "--step-limit", "1000",
                      stdin=source)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        line, = done.stderr.strip().splitlines()
        assert line.startswith(f"repro {command}: {message}")

    def test_failed_sweep_cell_is_named(self):
        done = _repro("sweep", "-", "--ns", "8,16", "--machine", "tail",
                      stdin="(define (f n) (car n))")
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.strip() == (
            "repro sweep: SweepCellError: sweep cell ('tail', 8) failed: "
            "PrimitiveError: car: not a pair: NUM:8"
        )

    def test_a_bug_keeps_its_traceback(self, monkeypatch, loop_file):
        """Only the program's errors are reported in one line."""
        import repro.cli

        def broken(*args, **kwargs):
            raise KeyError("not a program error")

        monkeypatch.setattr(repro.cli, "run", broken)
        with pytest.raises(KeyError):
            main(["run", loop_file, "--arg", "5"])


#: One bad value per option that takes a count or a list of numbers,
#: with the usage error it must end in.
OPTION_ERROR_CASES = [
    (("sweep", "--ns", "8,x"),
     "argument --ns: want comma-separated integers, got '8,x'"),
    (("sweep", "--checkpoint-every", "0"),
     "argument --checkpoint-every: must be at least 1, got 0"),
    (("run", "--meter", "--gc-interval", "0"),
     "argument --gc-interval: must be at least 1, got 0"),
    (("run", "--meter", "--gc-interval", "-1"),
     "argument --gc-interval: must be at least 1, got -1"),
    (("trace", "--gc-interval", "0"),
     "argument --gc-interval: must be at least 1, got 0"),
    (("trace", "--blame-every", "0"),
     "argument --blame-every: must be at least 1, got 0"),
    (("trace", "--capacity", "0"),
     "argument --capacity: must be at least 1, got 0"),
    # Counts where 0 means off.
    (("sweep", "--trace-sample", "-1"),
     "argument --trace-sample: must be at least 0, got -1"),
    (("sweep", "--blame-every", "-1"),
     "argument --blame-every: must be at least 0, got -1"),
    (("sweep", "--retention-sample", "-1"),
     "argument --retention-sample: must be at least 0, got -1"),
    (("trace", "--retention-top", "-1"),
     "argument --retention-top: must be at least 0, got -1"),
    (("trace", "--top", "-1"),
     "argument --top: must be at least 0, got -1"),
    (("trace", "--series-top", "-1"),
     "argument --series-top: must be at least 0, got -1"),
    (("serve", "--max-retries", "-1"),
     "argument --max-retries: must be at least 0, got -1"),
    # Counts and limits.
    (("sweep", "--jobs", "0"),
     "argument --jobs: must be at least 1, got 0"),
    (("sweep", "--jobs", "-3"),
     "argument --jobs: must be at least 1, got -3"),
    (("trace", "--sample", "0"),
     "argument --sample: must be at least 1, got 0"),
    (("trace", "--sample", "-5"),
     "argument --sample: must be at least 1, got -5"),
    (("run", "--step-limit", "0"),
     "argument --step-limit: must be at least 1, got 0"),
    (("trace", "--step-limit", "0"),
     "argument --step-limit: must be at least 1, got 0"),
    (("submit", "--step-limit", "0"),
     "argument --step-limit: must be at least 1, got 0"),
    (("serve", "--workers", "0"),
     "argument --workers: must be at least 1, got 0"),
    (("serve", "--max-pending", "0"),
     "argument --max-pending: must be at least 1, got 0"),
    (("serve", "--artifact-cache", "0"),
     "argument --artifact-cache: must be at least 1, got 0"),
    # Seconds.
    (("sweep", "--jobs", "2", "--timeout", "-1"),
     "argument --timeout: must be a positive number of seconds, got -1"),
    (("serve", "--job-timeout", "0"),
     "argument --job-timeout: must be a positive number of seconds, got 0"),
    (("submit", "--poll-interval", "0"),
     "argument --poll-interval: must be a positive number of seconds, "
     "got 0"),
]

#: What each command is given besides the bad option: the program on
#: stdin and, where the command takes one, its input.
PROGRAM_ARGV = {
    "run": ("-", "--arg", "8"),
    "trace": ("-", "--arg", "8"),
    "submit": ("-", "--arg", "8"),
    "sweep": ("-",),
    "serve": (),
}


class TestOptionErrors:
    """A bad option value ends a command in a usage error (exit 2),
    neither a traceback nor a run that silently uses it."""

    @pytest.mark.parametrize("argv,message", OPTION_ERROR_CASES)
    def test_bad_option_value_is_a_usage_error(self, argv, message):
        command, *options = argv
        done = _repro(command, *PROGRAM_ARGV[command], *options,
                      stdin="(define (f n) (if (zero? n) 0 (f (- n 1))))")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.strip().splitlines()[-1] == (
            f"repro {command}: error: {message}"
        )


def test_submit_to_a_closed_port_is_one_line():
    """A server that cannot be reached ends ``repro submit`` in one
    stderr line and exit 1, not a traceback."""
    done = _repro("submit", "-", "--arg", "8", "--url", "http://127.0.0.1:9",
                  stdin="(define (f n) n)")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    line, = done.stderr.strip().splitlines()
    assert line.startswith("repro submit: cannot reach http://127.0.0.1:9: ")
