"""Tests for the deterministic concurrent dispatcher.

The load-bearing property: a race driven through :class:`RaceTask` —
alone or interleaved with arbitrary other races — produces bit-for-bit
the outcome of :func:`repro.psi.executors.interleaved_race`.
"""

import random

import pytest

from repro.harness import build_nfv_graph
from repro.matching import Budget
from repro.psi import PsiNFV, Variant, interleaved_race
from repro.service import Dispatcher, RaceTask
from repro.workload import extract_query

VARIANTS = (
    Variant("GQL", "Orig"),
    Variant("SPA", "Orig"),
    Variant("GQL", "DND"),
)


@pytest.fixture(scope="module")
def store():
    return build_nfv_graph("yeast", "tiny")


@pytest.fixture(scope="module")
def psi(store):
    return PsiNFV(store)


def engines_for(psi, query, variants=VARIANTS):
    return {
        v: psi.matcher(v.algorithm).engine(
            psi.prepared(v.algorithm),
            psi.rewritten(query, v.rewriting).graph,
            max_embeddings=1000,
            count_only=True,
        )
        for v in variants
    }


def assert_same_outcome(a, b):
    assert a.winner == b.winner
    assert a.steps == b.steps
    assert a.found == b.found
    assert a.killed == b.killed
    assert a.per_variant_steps == b.per_variant_steps


class TestRaceTaskEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_standalone_matches_interleaved_race(self, psi, store, seed):
        query = extract_query(store, 6, random.Random(seed))
        budget = Budget(max_steps=50_000)
        ref = interleaved_race(
            engines_for(psi, query), budget=budget
        )
        task = RaceTask(engines_for(psi, query), budget=budget)
        out = task.run_to_completion()
        assert_same_outcome(out, ref)

    def test_budget_kill(self, psi, store):
        query = extract_query(store, 8, random.Random(3))
        budget = Budget(max_steps=50)
        ref = interleaved_race(engines_for(psi, query), budget=budget)
        task = RaceTask(engines_for(psi, query), budget=budget)
        out = task.run_to_completion()
        assert_same_outcome(out, ref)
        if ref.killed:
            assert out.winner is None

    def test_quantum_independent(self, psi, store):
        query = extract_query(store, 6, random.Random(4))
        budget = Budget(max_steps=50_000)
        outs = []
        for quantum in (1, 7, 64, 1024):
            task = RaceTask(
                engines_for(psi, query), budget=budget, quantum=quantum
            )
            outs.append(task.run_to_completion())
        for out in outs[1:]:
            assert_same_outcome(out, outs[0])


class TestDispatcher:
    def test_concurrency_does_not_change_results(self, psi, store):
        """Ten interleaved races == ten solo races, query by query."""
        queries = [
            extract_query(store, 5, random.Random(s)) for s in range(10)
        ]
        budget = Budget(max_steps=50_000)
        refs = [
            interleaved_race(engines_for(psi, q), budget=budget)
            for q in queries
        ]
        disp = Dispatcher(workers=6)
        done = {}
        for i, q in enumerate(queries):
            disp.admit(i, RaceTask(engines_for(psi, q), budget=budget))
        while disp.active:
            for token, _, outcome in disp.tick(sorted(range(10))):
                if outcome is not None:
                    done[token] = outcome
        assert len(done) == 10
        for i, ref in enumerate(refs):
            assert_same_outcome(done[i], ref)

    def test_bounded_pool_limits_per_tick_work(self, psi, store):
        query = extract_query(store, 5, random.Random(11))
        disp = Dispatcher(workers=3)
        budget = Budget(max_steps=50_000)
        # each race is 3-wide: only one can run per tick
        disp.admit("a", RaceTask(engines_for(psi, query), budget=budget))
        q2 = extract_query(store, 5, random.Random(12))
        disp.admit("b", RaceTask(engines_for(psi, q2), budget=budget))
        events = disp.tick(["a", "b"])
        ran = [tok for tok, _, _ in events]
        assert ran == ["a"]  # b did not fit this tick

    def test_priority_order_respected(self, psi, store):
        query = extract_query(store, 5, random.Random(13))
        disp = Dispatcher(workers=3)
        budget = Budget(max_steps=50_000)
        disp.admit("a", RaceTask(engines_for(psi, query), budget=budget))
        q2 = extract_query(store, 5, random.Random(14))
        disp.admit("b", RaceTask(engines_for(psi, q2), budget=budget))
        events = disp.tick(["b", "a"])
        assert [tok for tok, _, _ in events] == ["b"]

    def test_too_wide_race_rejected(self, psi, store):
        query = extract_query(store, 5, random.Random(15))
        disp = Dispatcher(workers=2)
        with pytest.raises(ValueError, match="workers"):
            disp.admit(
                "a",
                RaceTask(
                    engines_for(psi, query),
                    budget=Budget(max_steps=1000),
                ),
            )

    def test_clock_advances_per_tick(self, psi, store):
        disp = Dispatcher(workers=4, quantum=32)
        query = extract_query(store, 4, random.Random(16))
        disp.admit(0, RaceTask(
            engines_for(psi, query), budget=Budget(max_steps=1000)
        ))
        disp.tick([0])
        assert disp.clock == 32
        assert disp.ticks.value == 1

    def test_cancel(self, psi, store):
        disp = Dispatcher(workers=4)
        query = extract_query(store, 4, random.Random(17))
        disp.admit(0, RaceTask(
            engines_for(psi, query), budget=Budget(max_steps=1000)
        ))
        disp.cancel(0)
        assert disp.active == 0
