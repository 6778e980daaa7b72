"""Figure 7 (flat) and Figure 8 (linked) space accounting tests."""

from repro.machine.config import Final, State
from repro.machine.continuation import CallK, Halt, Push, Return
from repro.machine.environment import EMPTY_ENV
from repro.machine.store import Store
from repro.machine.values import (
    Closure,
    Escape,
    FALSE,
    NIL,
    Num,
    Pair,
    Str,
    Sym,
    TRUE,
    UNSPECIFIED,
    Vector,
)
from repro.space.flat import (
    configuration_space,
    final_space,
    number_space,
    state_space,
    value_space,
)
from repro.space.linked import (
    configuration_space_linked,
)
from repro.syntax.ast import Lambda, Quote, Var


class TestValueSpace:
    """Figure 7's value clauses."""

    def test_booleans_and_symbols_cost_one(self):
        assert value_space(TRUE) == 1
        assert value_space(FALSE) == 1
        assert value_space(Sym("abc")) == 1

    def test_immediates_cost_one(self):
        assert value_space(NIL) == 1
        assert value_space(UNSPECIFIED) == 1

    def test_number_space_is_logarithmic(self):
        assert value_space(Num(1)) == 2          # 1 + 1 bit
        assert value_space(Num(1024)) == 1 + 11  # 1 + log2
        assert value_space(Num(2 ** 100)) == 1 + 101

    def test_number_space_of_zero_and_negative(self):
        assert value_space(Num(0)) == 2
        assert value_space(Num(-8)) == value_space(Num(8))

    def test_fixed_precision_numbers_cost_one(self):
        assert value_space(Num(2 ** 100), fixed_precision=True) == 1

    def test_number_space_helper(self):
        assert number_space(7) == 1 + 3
        assert number_space(7, fixed_precision=True) == 1

    def test_vector_space(self):
        assert value_space(Vector(())) == 1
        assert value_space(Vector((1, 2, 3))) == 4

    def test_pair_space(self):
        assert value_space(Pair(1, 2)) == 3

    def test_closure_space_counts_env(self):
        closure = Closure(
            0,
            Lambda(("x",), Var("x")),
            EMPTY_ENV.extend(("a", "b"), (1, 2)),
        )
        assert value_space(closure) == 1 + 2

    def test_escape_space_includes_continuation(self):
        kont = Return(EMPTY_ENV.extend(("x",), (1,)), Halt())
        assert value_space(Escape(0, kont)) == 1 + kont.flat_space

    def test_string_space(self):
        assert value_space(Str("")) == 1
        assert value_space(Str("hello")) == 6


class TestConfigurationSpace:
    def test_expression_state(self):
        """space((E, rho, kappa, sigma)) = |Dom rho| + space(kappa) +
        space(sigma): the expression itself costs nothing per step."""
        store = Store()
        store.alloc(Num(1))  # store space: 1 + 2
        env = EMPTY_ENV.extend(("x", "y"), (0, 1))
        state = State(Quote(1), False, env, Halt(), store)
        assert state_space(state) == 2 + 1 + 3

    def test_value_state_adds_value_space(self):
        store = Store()
        state = State(Num(3), True, EMPTY_ENV, Halt(), store)
        assert state_space(state) == value_space(Num(3)) + 1

    def test_final_configuration(self):
        store = Store()
        store.alloc(TRUE)  # 1 + 1
        final = Final(Num(1), store)
        assert final_space(final) == 2 + 2

    def test_configuration_space_dispatches(self):
        store = Store()
        final = Final(TRUE, store)
        assert configuration_space(final) == 1
        state = State(TRUE, True, EMPTY_ENV, Halt(), store)
        assert configuration_space(state) == 2

    def test_store_space_is_incremental(self):
        store = Store()
        env_locs = [store.alloc(Num(i)) for i in range(5)]
        store.write(env_locs[0], Vector(tuple(env_locs[1:])))
        store.delete_many(env_locs[4:])
        state = State(TRUE, True, EMPTY_ENV, Halt(), store)
        recomputed_bignum, _ = store.checkpoint_spaces()
        halt_space = 1
        assert state_space(state) == (
            value_space(TRUE) + halt_space + recomputed_bignum
        )


class TestLinkedSpace:
    """Section 13 / Figure 8: each binding counted once."""

    def test_shared_binding_counted_once(self):
        store = Store()
        shared = EMPTY_ENV.extend(("x",), (0,))
        kont = Return(shared, Return(shared, Halt()))
        state = State(Quote(1), False, shared, kont, store)
        # Three environments share one binding: flat counts 3 words of
        # environment, linked counts 1.
        flat = state_space(state)
        linked = configuration_space_linked(state)
        assert flat - linked == 2

    def test_distinct_bindings_counted_separately(self):
        store = Store()
        env_a = EMPTY_ENV.extend(("x",), (0,))
        env_b = EMPTY_ENV.extend(("x",), (1,))  # same name, new location
        kont = Return(env_b, Halt())
        state = State(Quote(1), False, env_a, kont, store)
        linked = configuration_space_linked(state)
        assert linked == 2 + 1 + 1  # two bindings + two frame words

    def test_closure_env_shares_with_register_env(self):
        store = Store()
        env = EMPTY_ENV.extend(("x",), (0,))
        closure = Closure(1, Lambda((), Quote(1)), env)
        state = State(closure, True, env, Halt(), store)
        # Closure costs 1 structural word; its binding is shared.
        assert configuration_space_linked(state) == 1 + 1 + 1

    def test_linked_never_exceeds_flat(self):
        """U <= S pointwise (section 13)."""
        from repro.space.consumption import prepare_input, prepare_program
        from repro.machine.variants import TailMachine
        from repro.machine.config import Final as FinalConfig

        machine = TailMachine()
        program = prepare_program(
            "(define (f n) (if (zero? n) 0 (f (- n 1))))"
        )
        state = machine.inject(program, prepare_input("10"))
        for _ in range(500):
            result = machine.step(state)
            if isinstance(result, FinalConfig):
                assert configuration_space_linked(result) <= configuration_space(
                    result
                )
                break
            state = result
            assert configuration_space_linked(state) <= state_space(state)

    def test_final_linked_space(self):
        store = Store()
        final = Final(Num(1), store)
        assert configuration_space_linked(final) == value_space(Num(1))

    def test_linked_store_closure_costs_one(self):
        store = Store()
        env = EMPTY_ENV.extend(("x",), (0,))
        store.alloc(Closure(5, Lambda((), Quote(1)), env))
        state = State(Quote(1), False, EMPTY_ENV, Halt(), store)
        # store cell (1) + closure structural (1) + binding (1) + halt (1)
        assert configuration_space_linked(state) == 4

    def test_parked_closure_costs_frame_words_only(self):
        """Section 13 / DESIGN.md: a closure parked in a push or call
        frame costs the frame's m/n words — its environment table is
        not charged (matching Figure 7's flat treatment), which is
        what keeps U_X <= S_X."""
        store = Store()
        env = EMPTY_ENV.extend(("a", "b", "c"), (0, 1, 2))
        parked = Closure(9, Lambda((), Quote(1)), env)
        kont = CallK((parked,), Halt())
        state = State(Quote(1), False, EMPTY_ENV, kont, store)
        # call frame: 1 + m(1); halt: 1 — and nothing for the env.
        assert configuration_space_linked(state) == 3

    def test_parked_closure_flat_also_costs_one_word(self):
        store = Store()
        env = EMPTY_ENV.extend(("a", "b", "c"), (0, 1, 2))
        parked = Closure(9, Lambda((), Quote(1)), env)
        kont = CallK((parked,), Halt())
        state = State(Quote(1), False, EMPTY_ENV, kont, store)
        assert state_space(state) == 3
        assert configuration_space_linked(state) <= state_space(state)

    def test_push_and_call_frames_charge_m_n(self):
        store = Store()
        push = Push((Quote(1),), (TRUE, NIL), (0, 1, 2), EMPTY_ENV, Halt())
        state = State(Quote(1), False, EMPTY_ENV, push, store)
        # push: 1 + m(1) + n(2); halt: 1
        assert configuration_space_linked(state) == 5
        call = CallK((TRUE,), Halt())
        state = State(TRUE, True, EMPTY_ENV, call, store)
        # accumulator 1 + call (1 + 1) + halt 1
        assert configuration_space_linked(state) == 4
