"""Baker's MTA machine (section 14, [Bak95]): allocates a return frame
for every call yet is properly tail recursive — the behaviour the
paper says only an asymptotic definition can bless."""

import pytest

from repro.harness.runner import run
from repro.machine.continuation import Return, depth
from repro.machine.variants import MtaMachine, make_machine
from repro.programs.examples import CPS_LOOP, CPS_PINGPONG, MUTUAL_RECURSION
from repro.space.asymptotics import fit_growth, is_bounded
from repro.space.consumption import space_consumption

LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1))))"
NS = (16, 32, 64, 128)


def series(source, machine="mta", **options):
    return [
        space_consumption(machine, source, str(n),
                          fixed_precision=True, **options)
        for n in NS
    ]


class TestAnswers:
    @pytest.mark.parametrize(
        "source, argument, expected",
        [
            (LOOP, "1000", "0"),
            (CPS_LOOP, "200", "0"),
            (MUTUAL_RECURSION, "41", "#f"),
            ("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1)))))",
             "10", "3628800"),
            ("(+ 1 (call/cc (lambda (k) (+ 10 (k 5)))))", None, "6"),
        ],
    )
    def test_same_answers(self, source, argument, expected):
        assert run(source, argument, machine="mta").answer == expected
        assert run(source, argument, machine="tail").answer == expected


class TestProperTailRecursion:
    def test_loop_constant_space(self):
        assert is_bounded(series(LOOP)), series(LOOP)

    def test_cps_constant_space(self):
        assert is_bounded(series(CPS_LOOP))

    def test_pingpong_constant_space(self):
        assert is_bounded(series(CPS_PINGPONG))

    def test_constant_even_with_relaxed_gc(self):
        """Frames pile up to the collection interval (Baker's stack
        buffer), adding a constant, not a growth term."""
        totals = series(LOOP, gc_interval=16)
        assert is_bounded(totals), totals

    def test_within_constant_of_tail(self):
        for n in (32, 128):
            mta = space_consumption("mta", LOOP, str(n), fixed_precision=True)
            tail = space_consumption("tail", LOOP, str(n), fixed_precision=True)
            assert mta <= tail + 16

    def test_gc_machine_is_linear_for_contrast(self):
        totals = series(LOOP, machine="gc")
        assert fit_growth(NS, totals).name == "O(n)"

    def test_non_tail_frames_are_preserved(self):
        """Compaction only collapses *consecutive* returns: the frames
        of genuinely non-tail recursion must survive."""
        source = "(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1)))))"
        totals = series(source)
        assert fit_growth(NS, totals).name == "O(n)"


class TestCompaction:
    def test_compact_collapses_consecutive_returns(self):
        from repro.machine.config import State
        from repro.machine.continuation import Halt, Select
        from repro.machine.environment import EMPTY_ENV
        from repro.machine.store import Store
        from repro.machine.values import TRUE
        from repro.syntax.ast import Quote

        env = EMPTY_ENV.extend(("x",), (0,))
        chain = Return(env, Return(env, Return(env, Halt())))
        machine = MtaMachine()
        state = State(TRUE, True, EMPTY_ENV, chain, Store())
        compacted = machine.compact(state)
        assert depth(compacted.kont) == 2  # one Return + halt

    def test_compact_preserves_interleaved_frames(self):
        from repro.machine.config import State
        from repro.machine.continuation import Halt, Select
        from repro.machine.environment import EMPTY_ENV
        from repro.machine.store import Store
        from repro.machine.values import TRUE
        from repro.syntax.ast import Quote

        env = EMPTY_ENV
        chain = Return(
            env, Select(Quote(1), Quote(2), env, Return(env, Halt()))
        )
        machine = MtaMachine()
        state = State(TRUE, True, EMPTY_ENV, chain, Store())
        compacted = machine.compact(state)
        assert depth(compacted.kont) == depth(chain)

    def test_compact_noop_returns_same_state(self):
        from repro.machine.config import State
        from repro.machine.continuation import Halt
        from repro.machine.environment import EMPTY_ENV
        from repro.machine.store import Store
        from repro.machine.values import TRUE

        machine = MtaMachine()
        state = State(TRUE, True, EMPTY_ENV, Halt(), Store())
        assert machine.compact(state) is state

    def test_collapse_shares_no_frame_with_the_old_chain(self):
        """A collapse rebuilds every frame above halt, as the seed
        stepper does: an escape may still hold the old chain, and
        linked accounting counts each frame object once, so sharing a
        suffix would change U_mta (ctak)."""
        from repro.machine.config import State
        from repro.machine.continuation import Halt, Select, chain
        from repro.machine.environment import EMPTY_ENV
        from repro.machine.store import Store
        from repro.machine.values import TRUE
        from repro.syntax.ast import Quote

        env = EMPTY_ENV.extend(("x",), (0,))
        halt = Halt()
        old = Return(env, Return(env, Select(
            Quote(1), Quote(2), env, Return(env, halt)
        )))
        machine = MtaMachine()
        state = State(TRUE, True, EMPTY_ENV, old, Store())
        compacted = machine.compact(state)
        assert compacted is not state
        assert depth(compacted.kont) == depth(old) - 1
        old_frames = {id(frame) for frame in chain(old)}
        shared = [
            frame for frame in chain(compacted.kont)
            if id(frame) in old_frames
        ]
        assert shared == [halt]

    def test_compacting_a_compact_continuation_returns_same_state(self):
        from repro.machine.config import State
        from repro.machine.continuation import Halt, Select
        from repro.machine.environment import EMPTY_ENV
        from repro.machine.store import Store
        from repro.machine.values import TRUE
        from repro.syntax.ast import Quote

        env = EMPTY_ENV
        machine = MtaMachine()
        runs = Return(env, Return(env, Select(
            Quote(1), Quote(2), env, Return(env, Halt())
        )))
        compacted = machine.compact(
            State(TRUE, True, EMPTY_ENV, runs, Store())
        )
        assert machine.compact(compacted) is compacted
        # Frames pushed on a compact chain are walked down to the first
        # known-compact frame; a new run of returns still collapses.
        pushed = State(
            TRUE, True, EMPTY_ENV,
            Select(Quote(1), Quote(2), env, compacted.kont),
            compacted.store,
        )
        assert machine.compact(pushed) is pushed
        tail_call = State(
            TRUE, True, EMPTY_ENV, Return(env, compacted.kont),
            compacted.store,
        )
        assert depth(machine.compact(tail_call).kont) == depth(
            compacted.kont
        )

    def test_registered(self):
        assert isinstance(make_machine("mta"), MtaMachine)
