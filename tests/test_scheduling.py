"""Tests for the deterministic parallel-schedule simulator."""

import pytest

from repro.metrics import CostRecord
from repro.scheduling import (
    FairShareLedger,
    ScheduleOutcome,
    first_match_schedule,
)


def fixed(steps, found=False, killed=False):
    """A task with a precomputed cost, truncated to its allowance."""

    def run(allowance):
        if steps > allowance:
            return CostRecord(steps=allowance, found=False, killed=True)
        return CostRecord(steps=steps, found=found, killed=killed)

    return run


class TestSequential:
    def test_sum_until_first_match(self):
        tasks = [fixed(10), fixed(20, found=True), fixed(99)]
        out = first_match_schedule(tasks, workers=1)
        assert out.found
        assert out.time == 30
        assert out.executed == 2  # third task never starts

    def test_no_match_makespan(self):
        out = first_match_schedule([fixed(10), fixed(5)], workers=1)
        assert not out.found
        assert out.time == 15
        assert not out.killed

    def test_budget_kills(self):
        out = first_match_schedule(
            [fixed(100), fixed(100)], workers=1, budget_steps=150
        )
        assert out.killed
        assert out.time == 150

    def test_match_on_budget_boundary(self):
        out = first_match_schedule(
            [fixed(100, found=True)], workers=1, budget_steps=100
        )
        assert out.found
        assert out.time == 100


class TestParallel:
    def test_race_takes_min(self):
        tasks = [fixed(50, found=True), fixed(10, found=True)]
        out = first_match_schedule(tasks, workers=2)
        assert out.found
        assert out.time == 10

    def test_makespan_without_match(self):
        tasks = [fixed(50), fixed(10), fixed(30)]
        out = first_match_schedule(tasks, workers=2)
        # worker0: 50 ; worker1: 10 + 30 = 40
        assert out.time == 50

    def test_lazy_skips_tasks_after_win(self):
        tasks = [fixed(5, found=True), fixed(100), fixed(100)]
        out = first_match_schedule(tasks, workers=1)
        assert out.executed == 1

    def test_workers_never_hurt(self):
        tasks = [fixed(30), fixed(30), fixed(30), fixed(30, found=True)]
        t1 = first_match_schedule(tasks, workers=1).time
        t4 = first_match_schedule(tasks, workers=4).time
        assert t4 <= t1

    def test_later_finish_not_preferred(self):
        # first task finds at 100, second (same worker start 0 on w2)
        # finds at 20: winner is the earliest finish
        tasks = [fixed(100, found=True), fixed(20, found=True)]
        out = first_match_schedule(tasks, workers=2)
        assert out.time == 20

    def test_allowance_respects_earlier_win(self):
        calls = []

        def probe(allowance):
            calls.append(allowance)
            return CostRecord(steps=min(allowance, 1000), found=False,
                              killed=allowance < 1000)

        tasks = [fixed(10, found=True), probe]
        first_match_schedule(tasks, workers=2, budget_steps=500)
        # the probe may run at most until the winner's finish time
        assert calls == [10]


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            first_match_schedule([fixed(1)], workers=0)

    def test_empty_tasks(self):
        out = first_match_schedule([], workers=2)
        assert out.time == 0
        assert not out.found
        assert not out.killed


class TestRaceEquivalence:
    """``workers >= len(tasks)`` must behave as a Ψ race: every task
    starts at time 0 and the earliest match finish wins."""

    def test_time_is_min_matching_task(self):
        costs = [50, 20, 35]
        tasks = [fixed(c, found=True) for c in costs]
        for workers in (3, 4, 10):
            out = first_match_schedule(tasks, workers=workers)
            assert out.found
            assert out.time == min(costs)

    def test_no_match_time_is_max(self):
        costs = [50, 20, 35]
        tasks = [fixed(c) for c in costs]
        for workers in (3, 7):
            out = first_match_schedule(tasks, workers=workers)
            assert not out.found
            assert out.time == max(costs)

    def test_extra_workers_change_nothing(self):
        tasks = [fixed(40), fixed(25, found=True), fixed(60, found=True)]
        base = first_match_schedule(tasks, workers=3)
        more = first_match_schedule(tasks, workers=30)
        assert (base.time, base.found, base.killed) == (
            more.time, more.found, more.killed
        )

    def test_all_tasks_executed_when_racing(self):
        # with one worker a match stops later tasks from starting;
        # with enough workers they all start at time 0 and execute
        tasks = [fixed(5, found=True), fixed(100), fixed(100)]
        out = first_match_schedule(tasks, workers=3)
        assert out.executed == 3


class TestBudgetEdges:
    def test_zero_allowance_task_never_starts(self):
        # budget equal to the first task's cost: the second task's
        # start time equals the cap, so it must not execute at all
        calls = []

        def probe(allowance):
            calls.append(allowance)
            return CostRecord(steps=1, found=False)

        out = first_match_schedule(
            [fixed(100), probe], workers=1, budget_steps=100
        )
        assert calls == []
        assert out.executed == 1
        assert not out.killed  # first task finished exactly at the cap

    def test_exhausted_budget_kills_mid_task(self):
        out = first_match_schedule(
            [fixed(70), fixed(70)], workers=1, budget_steps=100
        )
        assert out.killed
        assert out.time == 100
        # the second task was truncated to its 30-step allowance
        assert out.task_results[1].steps == 30
        assert out.task_results[1].killed

    def test_match_after_budget_does_not_count(self):
        out = first_match_schedule(
            [fixed(100, found=True)], workers=1, budget_steps=60
        )
        assert not out.found
        assert out.killed
        assert out.time == 60

    def test_budget_one(self):
        out = first_match_schedule(
            [fixed(1, found=True)], workers=1, budget_steps=1
        )
        assert out.found
        assert out.time == 1


class TestTieBreaking:
    def test_equal_finish_prefers_declaration_order(self):
        # both find at t=10 on different workers; winner time is 10
        # regardless, and the outcome is stable across repeats
        tasks = [fixed(10, found=True), fixed(10, found=True)]
        outs = [
            first_match_schedule(tasks, workers=2) for _ in range(3)
        ]
        assert all(o.time == 10 and o.found for o in outs)
        assert all(o.executed == outs[0].executed for o in outs)

    def test_worker_assignment_deterministic(self):
        # equal free times: lowest worker id gets the task, so the
        # makespan is reproducible
        tasks = [fixed(10), fixed(10), fixed(10)]
        times = {
            first_match_schedule(tasks, workers=2).time
            for _ in range(3)
        }
        assert times == {20}


class TestFairShareLedger:
    def test_pick_least_charged(self):
        ledger = FairShareLedger()
        ledger.charge("a", 100)
        ledger.charge("b", 10)
        assert ledger.pick(["a", "b"]) == "b"

    def test_weights_divide_charges(self):
        ledger = FairShareLedger()
        ledger.register("heavy", weight=10.0)
        ledger.register("light", weight=1.0)
        ledger.charge("heavy", 500)
        ledger.charge("light", 100)
        # 500/10=50 < 100/1: heavy is owed service
        assert ledger.pick(["light", "heavy"]) == "heavy"

    def test_tie_breaks_by_registration(self):
        ledger = FairShareLedger()
        ledger.register("z")
        ledger.register("a")
        assert ledger.pick(["a", "z"]) == "z"

    def test_charge_accepts_cost_algebra_types(self):
        ledger = FairShareLedger()
        ledger.charge("a", CostRecord(steps=7, found=False))
        out = first_match_schedule([fixed(5)], workers=1)
        assert isinstance(out, ScheduleOutcome)
        ledger.charge("a", out)
        assert ledger.snapshot() == {"a": 12}

    def test_validation(self):
        ledger = FairShareLedger()
        with pytest.raises(ValueError):
            ledger.register("a", weight=0)
        with pytest.raises(ValueError):
            ledger.charge("a", -1)

    def test_empty_pick(self):
        assert FairShareLedger().pick([]) is None

    def test_snapshot(self):
        ledger = FairShareLedger()
        ledger.charge("a", 3)
        assert ledger.snapshot() == {"a": 3}
