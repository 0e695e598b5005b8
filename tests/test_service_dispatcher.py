"""Tests for the deterministic concurrent dispatcher.

The load-bearing property: a race driven through :class:`RaceTask` —
alone or interleaved with arbitrary other races — produces bit-for-bit
the outcome of :func:`repro.psi.executors.interleaved_race`.
"""

import random

import pytest

from repro.harness import build_nfv_graph
from repro.matching import Budget, MatchOutcome
from repro.psi import PsiNFV, RaceTask, Variant, interleaved_race
from repro.service import Dispatcher
from repro.service.planner import HEAD_START_STEPS, race_starts
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
    return psi.engines(query, variants, 1000, True)


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


def counted(steps, found=True):
    """A synthetic engine that completes after exactly ``steps``."""
    for _ in range(steps):
        yield 1
    return MatchOutcome(found=found)


def staged(engines):
    """A race under the planner's schedule."""
    return RaceTask(
        engines,
        budget=Budget(max_steps=50_000),
        starts=race_starts(list(engines)),
    )


def slow_head_query(psi, store):
    """A query whose head (the first variant) outlasts its head start."""
    head = VARIANTS[0]
    for seed in range(200):
        query = extract_query(store, 12, random.Random(seed))
        cost = psi.run_variant(query, head, count_only=True)
        if cost.steps > HEAD_START_STEPS and not cost.killed:
            return query
    raise AssertionError("no slow-head query in the sample")


class TestStagedRace:
    def test_head_phase_claims_one_slot(self):
        disp = Dispatcher(workers=4)
        race = staged({i: counted(10_000) for i in range(4)})
        disp.admit("a", race)
        assert race.width == 1
        assert disp.slots_free(0) == 3

    def test_four_staged_heads_co_run(self):
        disp = Dispatcher(workers=4)
        for token in "abcd":
            disp.admit(token, staged({i: counted(10_000) for i in range(4)}))
        assert disp.slots_free(0) == 0
        events = disp.tick(list("abcd"))
        assert [token for token, _, _ in events] == list("abcd")
        # only the heads advanced: one quantum each
        assert [work for _, work, _ in events] == [disp.quantum] * 4

    def test_field_join_claims_full_width(self):
        disp = Dispatcher(workers=4, quantum=64)
        race = staged({i: counted(10_000) for i in range(4)})
        disp.admit("a", race)
        head_ticks = 0
        while race.width == 1:
            disp.tick(["a"])
            head_ticks += 1
        assert head_ticks == HEAD_START_STEPS // 64
        assert race.width == 4
        assert disp.slots_free(0) == 0
        disp.admit("b", staged({i: counted(10_000) for i in range(4)}))
        events = disp.tick(["a", "b"])
        assert [token for token, _, _ in events] == ["a"]
        assert events[0][1] == 4 * 64  # head and field each a quantum

    def test_five_wide_staged_race_refused(self):
        disp = Dispatcher(workers=4)
        race = staged({i: counted(10) for i in range(5)})
        assert race.width == 1  # started width would fit ...
        with pytest.raises(ValueError, match="5 variants"):
            disp.admit("a", race)  # ... the declared width does not

    def test_a_race_starting_past_a_quantum_waits_slotless(self):
        """A race whose every start lies a quantum or more ahead (a
        routed decision fan-out's later shard) claims no slot and
        advances no engine until its start; then it joins, takes its
        slot and finishes at its start plus its own steps."""
        disp = Dispatcher(workers=1, quantum=64)
        late = RaceTask(
            {0: counted(10)}, budget=Budget(max_steps=50_000),
            quantum=64, starts={0: 128},
        )
        busy = RaceTask(
            {0: counted(10_000)}, budget=Budget(max_steps=50_000),
            quantum=64,
        )
        disp.admit("late", late)
        disp.admit("busy", busy)
        assert late.width == 0 and disp.slots_free(0) == 0
        order = ["late", "busy"]
        # two ticks short of its start: the busy race keeps the slot
        for _ in range(2):
            events = disp.tick(order)
            assert [(t, w) for t, w, _ in events] == [
                ("late", 0), ("busy", 64),
            ]
        assert late.width == 1
        # its start reached: it joins first in order and wins the slot
        [(token, work, outcome)] = disp.tick(order)
        assert (token, work) == ("late", 10)
        assert outcome.found and outcome.steps == 128 + 10
        assert outcome.per_variant_steps == {0: 10}

    def test_outcome_independent_of_quantum(self, psi, store):
        query = slow_head_query(psi, store)
        variants = VARIANTS + (Variant("SPA", "DND"),)
        outs = []
        for quantum in (1, 7, 64, 4096):
            race = RaceTask(
                engines_for(psi, query, variants),
                budget=Budget(max_steps=50_000),
                quantum=quantum,
                starts=race_starts(variants),
            )
            outs.append(race.run_to_completion())
        assert any(
            steps for v, steps in outs[0].per_variant_steps.items()
            if v != variants[0]
        )  # the field joined: the offsets are in play
        for out in outs[1:]:
            assert_same_outcome(out, outs[0])


class _Walked(dict):
    """A dict that counts every walk over it (iteration, keys, values,
    items); lookups, ``len`` and membership are free."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()

    def keys(self):
        type(self).walks += 1
        return super().keys()

    def values(self):
        type(self).walks += 1
        return super().values()

    def items(self):
        type(self).walks += 1
        return super().items()


class TestHotPathGuards:
    """What a turn and a tick cost, pinned as call counts: these hold
    on any host, where a timing would not."""

    def test_a_turn_hashes_no_variant(self, psi, store, monkeypatch):
        query = slow_head_query(psi, store)
        variants = VARIANTS + (Variant("SPA", "DND"),)
        race = RaceTask(
            engines_for(psi, query, variants),
            budget=Budget(max_steps=50_000),
            starts=race_starts(variants),
        )
        hashed = []
        real = Variant.__hash__

        def counting(self):
            hashed.append(self)
            return real(self)

        monkeypatch.setattr(Variant, "__hash__", counting)
        per_turn = []
        while race.outcome is None:
            before = len(hashed)
            race.round()
            per_turn.append(len(hashed) - before)
        # the field joined, and no turn before the settling one hashed
        assert len(per_turn) > HEAD_START_STEPS // race.quantum
        assert per_turn[:-1] == [0] * (len(per_turn) - 1)
        # the settling turn hashes each key once: the outcome's bills
        assert per_turn[-1] == len(variants)

    def test_a_head_settled_race_rewrites_once(self, store, monkeypatch):
        import repro.psi.framework as framework
        from repro.service import AdmissionController, Service, TenantPolicy

        svc = Service(
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=60_000)
            ),
        )
        svc.load_dataset("yeast", scale="tiny")
        applied = []
        real = framework.make_rewriting

        def counting(name):
            applied.append(name)
            return real(name)

        monkeypatch.setattr(framework, "make_rewriting", counting)
        query = extract_query(store, 4, random.Random(1))
        ticket = svc.submit("yeast", query)
        svc.run_until_idle()
        assert svc.metrics.value("service.races_head_only") == 1
        assert ticket.result.winner == VARIANTS[0]
        assert applied == ["Orig"]  # the head's; DND was never made

    def test_an_idle_pump_walks_no_flight(self, store, monkeypatch):
        from repro.service import AdmissionController, Service, TenantPolicy

        svc = Service(
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=60_000)
            ),
        )
        svc.load_dataset("yeast", scale="tiny")
        for seed in range(3):
            svc.submit(
                "yeast", extract_query(store, 12, random.Random(seed)),
                tenant=f"t{seed}",
            )
        svc.pump()  # admits every ticket
        assert svc.dispatcher.active == 3
        monkeypatch.setattr(_Walked, "walks", 0)
        svc.fanout.flights = _Walked(svc.fanout.flights)
        svc.replica_set.suspect_until = _Walked()
        for _ in range(20):
            assert not svc.pump()  # nothing settles this early
        assert _Walked.walks == 0
