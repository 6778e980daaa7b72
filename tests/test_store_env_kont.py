"""Unit tests for the store, environments, and continuations."""

import pytest

from conftest import ACCOUNTINGS, primed_meter, walked_store_words
from repro.machine.continuation import (
    Assign,
    CallK,
    Halt,
    Push,
    Return,
    ReturnStack,
    Select,
    chain,
    depth,
)
from repro.machine.environment import EMPTY_ENV, Environment
from repro.machine.store import Store, StoreError
from repro.machine.values import NIL, Num, Pair, Sym, TRUE, Vector
from repro.syntax.ast import Quote


class TestStore:
    def test_alloc_and_read(self):
        store = Store()
        loc = store.alloc(Num(5))
        assert store.read(loc).value == 5

    def test_locations_are_fresh(self):
        store = Store()
        locs = [store.alloc(Num(i)) for i in range(100)]
        assert len(set(locs)) == 100

    def test_write(self):
        store = Store()
        loc = store.alloc(Num(1))
        store.write(loc, Num(2))
        assert store.read(loc).value == 2

    def test_read_unmapped_is_error(self):
        with pytest.raises(StoreError):
            Store().read(0)

    def test_write_unmapped_is_error(self):
        with pytest.raises(StoreError):
            Store().write(0, NIL)

    def test_delete_many(self):
        store = Store()
        a = store.alloc(Num(1))
        b = store.alloc(Num(2))
        store.delete_many([a])
        assert a not in store and b in store
        assert len(store) == 1

    def test_delete_missing_is_silent(self):
        store = Store()
        store.delete_many([99])  # no error

    def test_alloc_many_preserves_order(self):
        store = Store()
        locs = store.alloc_many([Num(1), Num(2)])
        assert store.read(locs[0]).value == 1
        assert store.read(locs[1]).value == 2

    def test_space_totals_track_operations(self):
        """The delta engine's store words follow allocations and writes
        under every accounting."""
        for linked, fixed_precision in ACCOUNTINGS:
            store = Store()
            meter = primed_meter(store, linked, fixed_precision)
            loc = store.alloc(Num(1))
            store.alloc(Vector((loc,)))
            store.write(loc, Num(2 ** 64))
            assert meter.store_words == walked_store_words(
                store, linked, fixed_precision
            )

    def test_space_totals_after_delete(self):
        for linked, fixed_precision in ACCOUNTINGS:
            store = Store()
            meter = primed_meter(store, linked, fixed_precision)
            locs = [store.alloc(Num(i)) for i in range(10)]
            store.delete_many(locs[:5])
            assert meter.store_words == walked_store_words(
                store, linked, fixed_precision
            )

    def test_version_bumps(self):
        """``mut_version`` is the sampled meter's write barrier: it
        moves on writes and deletions, never on allocation."""
        store = Store()
        before = store.mut_version
        loc = store.alloc(NIL)
        store.alloc_many([TRUE, NIL])
        assert store.mut_version == before
        store.write(loc, TRUE)
        assert store.mut_version == before + 1
        store.delete_many([loc])
        assert store.mut_version == before + 2


class TestEnvironment:
    def test_empty(self):
        assert len(EMPTY_ENV) == 0
        assert EMPTY_ENV.lookup("x") is None

    def test_extend(self):
        env = EMPTY_ENV.extend(("x", "y"), (1, 2))
        assert env.lookup("x") == 1 and env.lookup("y") == 2
        assert len(env) == 2

    def test_extend_is_persistent(self):
        base = EMPTY_ENV.extend(("x",), (1,))
        extended = base.extend(("y",), (2,))
        assert base.lookup("y") is None
        assert extended.lookup("x") == 1

    def test_extend_shadows(self):
        env = EMPTY_ENV.extend(("x",), (1,)).extend(("x",), (2,))
        assert env.lookup("x") == 2
        assert len(env) == 1

    def test_extend_length_mismatch(self):
        with pytest.raises(ValueError):
            EMPTY_ENV.extend(("x",), (1, 2))

    def test_restrict(self):
        env = EMPTY_ENV.extend(("x", "y", "z"), (1, 2, 3))
        restricted = env.restrict({"x", "z", "missing"})
        assert len(restricted) == 2
        assert restricted.lookup("y") is None

    def test_restrict_to_all_returns_self(self):
        env = EMPTY_ENV.extend(("x",), (1,))
        assert env.restrict({"x"}) is env

    def test_graph(self):
        env = EMPTY_ENV.extend(("x", "y"), (1, 2))
        assert env.graph() == {("x", 1), ("y", 2)}

    def test_contains(self):
        env = EMPTY_ENV.extend(("x",), (1,))
        assert "x" in env and "y" not in env

    def test_location_values(self):
        env = EMPTY_ENV.extend(("x", "y"), (5, 6))
        assert sorted(env.location_values()) == [5, 6]


class TestContinuationSpace:
    """Figure 7's continuation clauses, via the cached flat_space."""

    def test_halt(self):
        assert Halt().flat_space == 1

    def test_select(self):
        env = EMPTY_ENV.extend(("x", "y"), (1, 2))
        kont = Select(Quote(1), Quote(2), env, Halt())
        assert kont.flat_space == 1 + 2 + 1

    def test_assign(self):
        env = EMPTY_ENV.extend(("x",), (1,))
        assert Assign("x", env, Halt()).flat_space == 1 + 1 + 1

    def test_push(self):
        env = EMPTY_ENV.extend(("x",), (1,))
        kont = Push((Quote(1), Quote(2)), (TRUE,), (0, 1, 2), env, Halt())
        # 1 + m(2) + n(1) + |rho|(1) + space(halt)(1)
        assert kont.flat_space == 6

    def test_call(self):
        kont = CallK((TRUE, NIL, Num(1)), Halt())
        assert kont.flat_space == 1 + 3 + 1

    def test_return(self):
        env = EMPTY_ENV.extend(("x", "y", "z"), (1, 2, 3))
        assert Return(env, Halt()).flat_space == 1 + 3 + 1

    def test_return_stack_charges_like_return(self):
        env = EMPTY_ENV.extend(("x",), (1,))
        plain = Return(env, Halt())
        stacky = ReturnStack((7, 8, 9), env, Halt())
        assert stacky.flat_space == plain.flat_space

    def test_nested_space_accumulates(self):
        env = EMPTY_ENV.extend(("x",), (1,))
        inner = Return(env, Halt())
        outer = Return(env, inner)
        assert outer.flat_space == inner.flat_space + 2

    def test_chain_and_depth(self):
        kont = Return(EMPTY_ENV, Return(EMPTY_ENV, Halt()))
        assert depth(kont) == 3
        assert [type(k).__name__ for k in chain(kont)] == [
            "Return",
            "Return",
            "Halt",
        ]

    def test_direct_locations(self):
        env = EMPTY_ENV.extend(("x",), (5,))
        kont = ReturnStack((7,), env, Halt())
        assert set(kont.direct_locations()) == {5, 7}

    def test_push_direct_values(self):
        kont = Push((), (TRUE, NIL), (0, 1), EMPTY_ENV, Halt())
        assert kont.direct_values() == (TRUE, NIL)


class TestValueLocations:
    def test_pair_locations(self):
        assert Pair(1, 2).locations() == (1, 2)

    def test_vector_locations(self):
        assert Vector((3, 4, 5)).locations() == (3, 4, 5)

    def test_immediate_locations(self):
        assert Num(1).locations() == ()
        assert Sym("a").locations() == ()
        assert NIL.locations() == ()
