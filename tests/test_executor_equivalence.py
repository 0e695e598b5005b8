"""Equivalence proofs for the batched/quantum fast path.

The perf rework (bitmask kernels, batched step yields, quantum race
scheduling) must not move a single number: the step-count execution
model is the reproduction's clock.  These tests check, over a corpus of
random query/graph pairs, that

* ``interleaved_race`` returns identical winners, steps and
  ``per_variant_steps`` for every scheduling quantum;
* batched ``drive()`` matches unbatched step totals and kill behavior
  exactly, including at budget boundaries;
* the paper's GQL,SPA x Orig,DND race, stepped a round at a time,
  advances what a race of the recursive oracles
  (``tests/_nfv_recursive.py``) advances, round for round.
"""

import random

import pytest

from repro.graphs import gnm_graph, uniform_labels
from repro.matching import Budget, make_matcher
from repro.matching.engine import MatchOutcome, drive
from repro.psi import RaceTask, interleaved_race
from repro.rewriting import LabelStats, make_rewriting
from repro.workload import extract_query

from ._nfv_recursive import RecursiveGraphQLMatcher, RecursiveSPathMatcher

RACE_ALGOS = ("VF2", "QSI", "GQL", "SPA")
ALL_ALGOS = RACE_ALGOS + ("TUR", "REF")
QUANTA = (1, 7, 64)


def corpus():
    """Random (stored graph, query) pairs spanning sizes and labels."""
    cases = []
    for seed in range(6):
        rng = random.Random(seed)
        n = 30 + 12 * (seed % 3)
        labels = uniform_labels(n, ["A", "B", "C"][: 2 + seed % 2], rng)
        g = gnm_graph(n, int(n * 2.5), labels, rng)
        q = extract_query(g, 4 + seed % 3, random.Random(seed + 100))
        cases.append((g, q))
    return cases


def unbatch(gen):
    """Expand int batch yields into single-step yields (the seed shape)."""
    try:
        while True:
            try:
                inc = next(gen)
            except StopIteration as stop:
                return stop.value
            for _ in range(1 if inc is None else inc):
                yield
    finally:
        gen.close()


def race_signature(race):
    return (
        race.winner,
        race.steps,
        race.found,
        race.killed,
        dict(race.per_variant_steps),
    )


class TestQuantumEquivalence:
    @pytest.mark.parametrize("budget_steps", [None, 300, 5000])
    def test_all_quanta_identical(self, budget_steps):
        budget = (
            Budget(max_steps=budget_steps) if budget_steps else None
        )
        for g, q in corpus():
            outcomes = []
            for quantum in QUANTA:
                engines = {}
                for name in RACE_ALGOS:
                    m = make_matcher(name)
                    engines[name] = m.engine(
                        m.prepare(g), q, max_embeddings=5
                    )
                race = interleaved_race(
                    engines,
                    budget=budget,
                    quantum=quantum,
                )
                outcomes.append(race_signature(race))
            assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_quantum_matches_unbatched_round_robin(self):
        """Quantum K racing batched engines == 1-step racing the seed
        (unbatched) shape of the same engines."""
        for g, q in corpus():
            def engines(wrap):
                out = {}
                for name in RACE_ALGOS:
                    m = make_matcher(name)
                    gen = m.engine(m.prepare(g), q, max_embeddings=5)
                    out[name] = unbatch(gen) if wrap else gen
                return out

            fast = interleaved_race(engines(False), quantum=64)
            slow = interleaved_race(engines(True), quantum=1)
            assert race_signature(fast) == race_signature(slow)

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ValueError):
            interleaved_race(
                {"a": iter([None])}, quantum=0
            )


class TestNfvRaceMatchesTheOracle:
    @pytest.mark.parametrize("quantum", [1, 64])
    def test_round_for_round(self, quantum):
        """A dispatcher charges a round what it advanced
        (``last_round_steps``), so the engines' yield granularity — not
        only their totals — reaches the serving layer's clock."""
        def rounds(matchers, g, q):
            stats = LabelStats.of_graph(g)
            engines = {}
            for m in matchers:
                index = m.prepare(g)
                for rw in ("Orig", "DND"):
                    rewritten = make_rewriting(rw).apply(q, stats).graph
                    engines[m.name, rw] = m.engine(
                        index, rewritten, max_embeddings=5
                    )
            race = RaceTask(
                engines, budget=Budget(max_steps=5000), quantum=quantum
            )
            advanced = []
            while race.outcome is None:
                race.round()
                advanced.append(race.last_round_steps)
            return advanced, race_signature(race.outcome)

        for g, q in corpus():
            got = rounds((make_matcher("GQL"), make_matcher("SPA")), g, q)
            want = rounds(
                (RecursiveGraphQLMatcher(), RecursiveSPathMatcher()), g, q
            )
            assert got == want


class TestBatchedDriveEquivalence:
    def test_totals_match_unbatched(self):
        for g, q in corpus():
            for name in ALL_ALGOS:
                m = make_matcher(name)
                idx = m.prepare(g)
                batched = drive(m.engine(idx, q, max_embeddings=20))
                plain = drive(
                    unbatch(m.engine(idx, q, max_embeddings=20))
                )
                assert batched.steps == plain.steps, name
                assert batched.found == plain.found, name
                assert (
                    batched.num_embeddings == plain.num_embeddings
                ), name

    def test_kill_behavior_at_budget_boundaries(self):
        g, q = corpus()[0]
        for name in ALL_ALGOS:
            m = make_matcher(name)
            idx = m.prepare(g)
            total = drive(m.engine(idx, q, max_embeddings=20)).steps
            if total == 0:
                continue
            for cap in {1, max(1, total // 2), total - 1, total,
                        total + 1}:
                if cap < 1:
                    continue
                budget = Budget(max_steps=cap)
                batched = drive(
                    m.engine(idx, q, max_embeddings=20), budget
                )
                plain = drive(
                    unbatch(m.engine(idx, q, max_embeddings=20)),
                    budget,
                )
                assert batched.killed == plain.killed, (name, cap)
                assert batched.steps == plain.steps, (name, cap)

    def test_synthetic_batches_clamped_to_budget(self):
        def batches(seq):
            for inc in seq:
                yield inc
            return MatchOutcome(found=True, exhausted=True)

        # crossing the boundary mid-batch kills at exactly the budget
        out = drive(batches([7, 7]), Budget(max_steps=10))
        assert out.killed and out.steps == 10
        # landing exactly on the boundary kills too (seed convention:
        # the engine did not return before the budget expired)
        out = drive(batches([5, 5]), Budget(max_steps=10))
        assert out.killed and out.steps == 10
        # finishing under budget completes with exact totals
        out = drive(batches([5, 4]), Budget(max_steps=10))
        assert not out.killed and out.steps == 9 and out.found

    def test_mixed_none_and_int_yields(self):
        def mixed():
            yield
            yield 3
            yield None
            yield 2
            return MatchOutcome(found=True, exhausted=True)

        out = drive(mixed())
        assert out.steps == 7 and out.found
