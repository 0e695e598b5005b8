"""Tests for the Ψ-framework: executors and the NFV frontend (the
served FTV race is tested through the service)."""

import pytest

from repro.matching import Budget, MatchOutcome
from repro.psi import (
    AttemptCost,
    OverheadModel,
    PsiNFV,
    Variant,
    interleaved_race,
    race_from_costs,
    variants_from_spec,
)

from .conftest import canonical_embeddings, random_query_from


def fixed_engine(n, found):
    def gen():
        for _ in range(n):
            yield
        return MatchOutcome(found=found, exhausted=True)
    return gen


class TestVariants:
    def test_label(self):
        assert Variant("GQL", "ILF").label == "GQL-ILF"

    def test_cross_product(self):
        vs = variants_from_spec(("GQL", "SPA"), ("Orig", "DND"))
        assert len(vs) == 4
        assert vs[0] == Variant("GQL", "Orig")
        assert vs[-1] == Variant("SPA", "DND")


class TestInterleavedRace:
    def test_winner_is_fewest_steps(self):
        race = interleaved_race(
            {"slow": fixed_engine(50, True)(),
             "fast": fixed_engine(10, True)()}
        )
        assert race.winner == "fast"
        assert race.steps == 10
        assert race.found

    def test_tie_breaks_by_declaration_order(self):
        race = interleaved_race(
            {"a": fixed_engine(10, True)(),
             "b": fixed_engine(10, True)()}
        )
        assert race.winner == "a"

    def test_budget_kills_all(self):
        race = interleaved_race(
            {"x": fixed_engine(100, True)(),
             "y": fixed_engine(100, True)()},
            budget=Budget(max_steps=20),
        )
        assert race.killed
        assert race.winner is None
        assert race.steps == 20

    def test_overhead_charged(self):
        race = interleaved_race(
            {"a": fixed_engine(10, True)()},
            overhead=OverheadModel(base_steps=5, per_variant_steps=3),
        )
        assert race.overhead_steps == 8
        assert race.steps == 18

    def test_losers_charged_at_most_winner_steps(self):
        race = interleaved_race(
            {"fast": fixed_engine(10, True)(),
             "slow": fixed_engine(10**6, True)()}
        )
        assert race.per_variant_steps["slow"] <= 11
        assert race.work_steps <= 21

    def test_unfound_finisher_still_wins(self):
        """A variant that exhausts (decision: no) finishes the race."""
        race = interleaved_race(
            {"no": fixed_engine(5, False)(),
             "yes": fixed_engine(50, True)()}
        )
        assert race.winner == "no"
        assert not race.found

    def test_empty_race_rejected(self):
        with pytest.raises(ValueError):
            interleaved_race({})


class TestRaceFromCosts:
    def test_min_completing_wins(self):
        race = race_from_costs(
            {
                "a": AttemptCost(steps=50, found=True, killed=False),
                "b": AttemptCost(steps=10, found=True, killed=False),
                "c": AttemptCost(steps=5, found=False, killed=True),
            },
            budget_steps=100,
        )
        assert race.winner == "b"
        assert race.steps == 10

    def test_all_killed(self):
        race = race_from_costs(
            {
                "a": AttemptCost(steps=100, found=False, killed=True),
            },
            budget_steps=100,
        )
        assert race.killed
        assert race.steps == 100

    def test_overhead(self):
        race = race_from_costs(
            {"a": AttemptCost(steps=10, found=True, killed=False)},
            overhead=OverheadModel(per_variant_steps=7),
        )
        assert race.steps == 17

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            race_from_costs({})


class TestPsiNFV:
    def test_race_matches_direct_run(self, small_store):
        psi = PsiNFV(small_store)
        query = random_query_from(small_store, 5, 3)
        variants = [
            Variant("GQL", "Orig"),
            Variant("SPA", "ILF"),
            Variant("VF2", "DND"),
        ]
        result = psi.race(query, variants, max_embeddings=10**6)
        assert result.found
        direct = psi.matcher("VF2").run(
            small_store, query, max_embeddings=10**6
        )
        assert canonical_embeddings(result.embeddings) == (
            canonical_embeddings(direct.embeddings)
        )

    def test_race_steps_equal_best_variant(self, small_store):
        psi = PsiNFV(small_store)
        query = random_query_from(small_store, 5, 7)
        variants = [Variant("GQL", "Orig"), Variant("SPA", "Orig")]
        costs = {
            v: psi.run_variant(query, v, max_embeddings=1)
            for v in variants
        }
        result = psi.race(query, variants, max_embeddings=1)
        assert result.steps == min(c.steps for c in costs.values())

    def test_empty_variants_rejected(self, small_store):
        psi = PsiNFV(small_store)
        query = random_query_from(small_store, 4, 11)
        with pytest.raises(ValueError):
            psi.race(query, [])

    def test_rewritten_cache_resets_per_query(self, small_store):
        psi = PsiNFV(small_store)
        q1 = random_query_from(small_store, 4, 1)
        q2 = random_query_from(small_store, 4, 2)
        r1 = psi.rewritten(q1, "ILF")
        r2 = psi.rewritten(q2, "ILF")
        assert r1.graph.order == q1.order
        assert r2.graph.order == q2.order

