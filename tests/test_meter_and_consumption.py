"""Space meter and Definition 23 consumption function tests."""

import pytest

from repro.machine.variants import TailMachine
from repro.space.consumption import (
    Consumption,
    measure,
    measure_all,
    prepare_program,
    space_consumption,
    sweep,
)
from repro.space.meter import run_metered, run_to_final
from repro.syntax.ast import ast_size

LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1))))"


class TestRunMetered:
    def test_result_fields(self):
        machine = TailMachine()
        program = prepare_program(LOOP)
        from repro.space.consumption import prepare_input

        result = run_metered(machine, program, prepare_input("10"))
        assert result.machine == "tail"
        assert result.steps > 0
        assert result.sup_space > 0
        assert result.program_size == ast_size(program)
        assert result.consumption == result.program_size + result.sup_space

    def test_trace_recording(self):
        """A trace bus records the run's space over time: one ``space``
        event per measured configuration, peaking at the sup."""
        from repro.space.consumption import prepare_input
        from repro.telemetry.bus import TraceBus

        machine = TailMachine()
        program = prepare_program(LOOP)
        bus = TraceBus()
        result = run_metered(machine, program, prepare_input("10"), trace=bus)
        spaces = [(e.step, e.value) for e in bus.events if e.kind == "space"]
        assert len(spaces) == result.steps + 1
        steps = [s for s, _ in spaces]
        assert steps == sorted(steps)
        assert max(space for _, space in spaces) == result.sup_space

    def test_gc_interval_must_be_positive(self):
        from repro.space.consumption import prepare_input

        for gc_interval in (0, -1):
            with pytest.raises(ValueError, match="gc_interval"):
                run_metered(
                    TailMachine(),
                    prepare_program(LOOP),
                    prepare_input("1"),
                    gc_interval=gc_interval,
                )

    def test_peak_step_consistent_with_trace(self):
        machine = TailMachine()
        program = prepare_program(LOOP)
        from repro.space.consumption import prepare_input

        result = run_metered(machine, program, prepare_input("5"))
        assert 0 <= result.peak_step <= result.steps

    def test_run_to_final_matches_metered_answer(self):
        from repro.machine.answer import answer_string

        machine = TailMachine()
        program = prepare_program("(define (f n) (* n n))")
        from repro.space.consumption import prepare_input

        metered = run_metered(machine, program, prepare_input("9"))
        fast, _steps = run_to_final(
            TailMachine(), program, prepare_input("9")
        )
        assert answer_string(metered.final) == answer_string(fast) == "81"


class TestConsumptionFunction:
    def test_includes_program_size(self):
        program = prepare_program(LOOP)
        result = measure("tail", program, "0")
        assert result.program_size == ast_size(program)
        assert result.total == result.sup_space + result.program_size

    def test_space_consumption_shorthand(self):
        assert space_consumption("tail", LOOP, "5") == measure(
            "tail", LOOP, "5"
        ).total

    def test_deterministic(self):
        assert space_consumption("gc", LOOP, "20") == space_consumption(
            "gc", LOOP, "20"
        )

    def test_fixed_precision_leq_bignum(self):
        fixed = space_consumption("tail", LOOP, "100", fixed_precision=True)
        bignum = space_consumption("tail", LOOP, "100")
        assert fixed <= bignum

    def test_linked_leq_flat(self):
        """U_X <= S_X (section 13)."""
        for machine in ("tail", "gc", "evlis"):
            linked = space_consumption(machine, LOOP, "30", linked=True)
            flat = space_consumption(machine, LOOP, "30")
            assert linked <= flat

    def test_measure_all_same_answers(self):
        results = measure_all(LOOP, "10")
        answers = {c.answer for c in results.values()}
        assert answers == {"0"}

    def test_measure_all_machine_set(self):
        results = measure_all(LOOP, "5", machines=("tail", "gc"))
        assert set(results) == {"tail", "gc"}

    def test_consumption_dataclass_fields(self):
        result = measure("sfs", LOOP, "3", linked=False, fixed_precision=True)
        assert isinstance(result, Consumption)
        assert result.machine == "sfs"
        assert result.fixed_precision is True
        assert result.linked is False


class TestSweep:
    def test_sweep_constant_program(self):
        ns, totals = sweep("tail", lambda n: LOOP, (5, 10, 20))
        assert ns == (5, 10, 20)
        assert len(totals) == 3
        # I_tail runs the loop in (nearly) constant space.
        assert max(totals) <= min(totals) + 8

    def test_sweep_growing_program(self):
        ns, totals = sweep("gc", lambda n: LOOP, (10, 20, 40))
        assert totals[2] > totals[1] > totals[0]

    def test_sweep_custom_argument(self):
        ns, totals = sweep(
            "tail",
            lambda n: LOOP,
            (5, 10),
            argument_for=lambda n: str(2 * n),
        )
        assert len(totals) == 2


class TestTrimGlobals:
    def test_trimmed_vs_full_environment(self):
        trimmed = space_consumption("gc", LOOP, "10")
        machine_full = None
        from repro.machine.variants import GcMachine
        from repro.space.consumption import prepare_input

        machine = GcMachine()
        state_full = machine.inject(
            prepare_program(LOOP), prepare_input("10"), trim_globals=False
        )
        # The untrimmed initial store holds every standard procedure.
        assert len(state_full.store) > 50

    def test_trimmed_initial_store_is_small(self):
        from repro.machine.variants import GcMachine
        from repro.space.consumption import prepare_input

        machine = GcMachine()
        state = machine.inject(
            prepare_program(LOOP), prepare_input("10"), trim_globals=True
        )
        assert len(state.store) < 10


class TestUnmeteredCollection:
    """``run_to_final`` compacts on the ``gc_interval`` clock but
    collects only once the store has grown by max(its size after the
    last collection, ``gc_interval``) cells."""

    def test_short_run_collects_nothing(self, monkeypatch):
        from repro.harness.runner import run
        from repro.programs.corpus import load_program
        import repro.space.meter as meter

        nqueens = load_program("nqueens")
        metered = run(nqueens.source, nqueens.default_input, machine="gc",
                      meter=True)
        calls = []
        collect = meter.collect
        monkeypatch.setattr(
            meter, "collect", lambda state: calls.append(collect(state))
        )
        result = run(nqueens.source, nqueens.default_input, machine="gc")
        assert calls == []
        assert (result.answer, result.steps) == (metered.answer,
                                                 metered.steps)

    def test_store_stays_within_twice_its_collected_size(self, monkeypatch):
        from repro.machine.variants import TailMachine
        from repro.space.consumption import prepare_input
        import repro.space.meter as meter

        interval = 1024
        floor = []
        boundaries = []
        collect = meter.collect

        def collect_and_record(state):
            reclaimed = collect(state)
            floor.append(len(state.store))
            return reclaimed

        run_steps = TailMachine.run_steps

        def run_steps_and_check(machine, state, limit):
            if not floor:
                floor.append(len(state.store))  # the injected store
            boundaries.append(len(state.store) < 2 * floor[-1] + interval)
            return run_steps(machine, state, limit)

        monkeypatch.setattr(meter, "collect", collect_and_record)
        monkeypatch.setattr(TailMachine, "run_steps", run_steps_and_check)
        program = prepare_program("""
            (define (f n)
              (define (loop i v)
                (if (zero? i)
                    (vector-length v)
                    (loop (- i 1) (make-vector 100 i))))
              (loop n (make-vector 100 0)))""")
        final, steps = run_to_final(TailMachine(), program,
                                    prepare_input("100000"),
                                    gc_interval=interval)
        assert final.value.value == 100
        assert len(floor) > 100
        assert len(boundaries) > steps // interval
        assert all(boundaries)

    def test_mta_compaction_keeps_its_clock(self):
        """MTA's step counts depend on when its continuation is
        compacted; the default stepper under ``run_to_final`` compacts
        every ``gc_interval`` steps, as a per-step seed run that
        compacts on the same clock does."""
        from repro.machine.reference_step import make_seed_stepper
        from repro.machine.variants import make_machine
        from repro.programs.corpus import load_corpus
        from repro.space.consumption import prepare_input

        interval = 1024
        for entry in load_corpus():
            program = prepare_program(entry.source)
            argument = prepare_input(entry.default_input)
            _, steps = run_to_final(make_machine("mta"), program, argument,
                                    gc_interval=interval)
            seed = make_seed_stepper("mta")
            state = seed.inject(program, argument)
            seed_steps = 0
            while True:
                configuration = seed.step(state)
                seed_steps += 1
                if configuration.is_final:
                    break
                state = configuration
                if seed_steps % interval == 0:
                    state = seed.compact(state)
            assert steps == seed_steps, entry.name
