"""Property-based tests (hypothesis) on core invariants.

Strategy: generate small random labeled stores and connected queries
grown from them, then assert the library's fundamental contracts:

* node-ID permutation yields isomorphic graphs (invariants preserved);
* every matcher agrees with brute force on found/count;
* rewritings are valid permutations and preserve answers;
* the path census is permutation-invariant and prefix-closed, and the
  mask-join coded census equals the label-space reference on counts
  and on decoded locations, on sparse graphs and on dense,
  triangle-rich ones;
* the plan-driven explicit-stack VF2, whose pools and lookahead are
  bitmask expressions, yields batch for batch what the recursive,
  list-scanning search it replaced yields
  (``tests/_vf2_recursive.py``), also when one plan is shared between
  engines, and has consumed the same batches at every kill cap;
* the bitmask GraphQL and sPath engines yield, batch for batch, what
  the ``Counter``-signature recursive engines they replaced yield
  (``tests/_nfv_recursive.py``), and are killed where those are;
* race outcomes equal the per-variant minimum;
* for any start offsets and quantum, a :class:`RaceTask` over engines
  with given costs and :func:`race_from_costs` over those costs agree
  on the winner, ``steps`` and ``found``, and bill each variant alike
  up to the live race's +1 for a variant declared before the winner;
  a race staged as the planner stages NFV races answers as the full
  race does, and does at most the full race's work plus the head
  start — no more than the full race's when the head wins that race;
  and round for round it reports the steps advanced and the width of
  the dict-keyed race turn it replaced (``tests/_race_oracle.py``),
  whether its engines come built or as builders and when it is closed
  mid-race, and settles on the same winner and bills;
* a Grapes or GGSX index that lived through a random add / remove /
  re-add sequence comes back from ``decode_index(encode_index(ix))``,
  given its label code order, with the same postings and tombstones,
  re-encodes to the same bytes and filters to the same candidates; and
  its trie,
  resealed only where a mutation unsealed it, answers ``mask_ge`` as
  the posting maps say at every node and threshold;
* along such a sequence, after every step: each threshold table a
  trie node holds — patched in place by an add, sealed lazily by a
  probe, or built when ``seal`` drained the unsealed nodes — is the
  fresh seal of its posting map, and ``seal`` returns the number of
  posting-carrying nodes and leaves nothing unsealed;
* the mutated index filters generated queries to the candidates an
  index rebuilt from the live graphs does;
* along such a sequence — slots revived with other graphs, newcomers
  with labels nobody had — a Grapes index, which derives a stored
  graph's locations the first time its verifier asks, and the same
  index restored from its own blob, return the ``feature_locations``
  of the reference that censuses every graph with locations up front,
  and verify to the reports of a twin whose postings were all located
  up front from that reference;
* whatever the shard count, the assignment and the add / remove /
  re-add stream — newcomers bringing labels new to a shard, to the
  collection or to neither — the shard indexes of a sharded catalog
  share one interner, together filter to the global ids one unsharded
  index fed the same stream does, and a store round trip of that state
  restores every index and agrees;
* on a 2 x 2 service, with or without a store, whatever interleaving
  of replica kills, regrows, adds and removes: after every quiesce the
  served collection digests as the rebuild-from-scratch oracle, and a
  shard that went dark re-warms from its blob only while no mutation
  has made that blob stale;
* on a generated ppi-like collection served over one or two shards,
  with or without ``decision_only``: every answer is the reference
  matcher's, and each staged FTV shard race bills what
  :func:`race_from_costs` replays from its sweeps' solo costs under
  :func:`race_starts` (a routed decision fan-out's later shard moved by
  its hedge offset), within the full race's work plus the head start.
"""

import random
import tempfile
from functools import partial
from itertools import chain
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.datasets import ppi_like
from repro.graphs import LabeledGraph, disjoint_union
from repro.harness import build_ftv_graphs
from repro.indexing import (
    GGSXIndex,
    GrapesIndex,
    LabelInterner,
    canonical_sequence,
    coded_path_census,
    label_path_census,
    location_vertices,
)
from repro.indexing.trie import _seal_row
from repro.matching import (
    SELECTION_POLICIES,
    Budget,
    GraphIndex,
    GraphQLMatcher,
    MatchOutcome,
    ReferenceMatcher,
    SPathMatcher,
    VF2Matcher,
    drive,
    make_matcher,
)
from repro.matching.masks import mask_ge
from repro.metrics import CostRecord
from repro.psi import OverheadModel, RaceTask, race_from_costs
from repro.rewriting import ALL_PAPER_REWRITINGS, LabelStats, make_rewriting
from repro.service import QueryOptions, Service
from repro.service.loadgen import collection_digest, oracle_digest
from repro.service.planner import (
    HEAD_START_STEPS,
    HEDGE_STEPS,
    SERVED_PATH_LENGTH,
    Rewrite,
    race_starts,
)
from repro.service.sharding import ShardedCatalog
from repro.store import StoreWriter
from repro.store.codec import decode_index, encode_index, index_method
from repro.workload import extract_query, generate_workload

from ._filter_reference import feature_locations_reference, stored_locations
from ._nfv_recursive import RecursiveGraphQLMatcher, RecursiveSPathMatcher
from ._race_oracle import DictRaceTask
from ._vf2_recursive import RecursiveVF2Matcher
from .conftest import canonical_embeddings

ALGORITHMS = ("VF2", "QSI", "GQL", "SPA", "TUR")


@st.composite
def stores(draw, max_nodes=14):
    """A small connected labeled graph."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = draw(
        st.lists(
            st.sampled_from(["A", "B", "C"]), min_size=n, max_size=n
        )
    )
    g = LabeledGraph(n, labels)
    # random spanning tree for connectivity
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


@st.composite
def store_and_query(draw):
    g = draw(stores())
    max_edges = min(5, g.size)
    k = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    q = extract_query(g, k, random.Random(seed))
    return g, q


@st.composite
def permutations_of(draw, n):
    perm = list(range(n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    random.Random(seed).shuffle(perm)
    return perm


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_permutation_preserves_invariants(data):
    g = data.draw(stores())
    perm = data.draw(permutations_of(g.order))
    h = g.permuted(perm)
    assert h.order == g.order
    assert h.size == g.size
    assert h.degree_label_signature() == g.degree_label_signature()
    assert sorted(map(len, h.connected_components())) == sorted(
        map(len, g.connected_components())
    )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_all_matchers_agree_with_brute_force(data):
    g, q = data.draw(store_and_query())
    ref = make_matcher("REF").run(g, q, max_embeddings=10**6)
    base = canonical_embeddings(ref.embeddings)
    for alg in ALGORITHMS:
        out = make_matcher(alg).run(g, q, max_embeddings=10**6)
        assert out.found == ref.found
        assert canonical_embeddings(out.embeddings) == base


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_matching_invariant_under_store_permutation(data):
    """Permuting the *stored graph* relabels embeddings but preserves
    their count — the decision answer is representation-independent."""
    g, q = data.draw(store_and_query())
    perm = data.draw(permutations_of(g.order))
    h = g.permuted(perm)
    a = make_matcher("VF2").run(g, q, max_embeddings=10**6)
    b = make_matcher("VF2").run(h, q, max_embeddings=10**6)
    assert a.num_embeddings == b.num_embeddings


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rewritings_are_valid_and_answer_preserving(data):
    g, q = data.draw(store_and_query())
    stats = LabelStats.of_graph(g)
    expected = make_matcher("VF2").run(g, q, max_embeddings=10**6)
    for name in ("Orig",) + ALL_PAPER_REWRITINGS:
        rq = make_rewriting(name).apply(q, stats)
        assert sorted(rq.perm) == list(range(q.order))
        out = make_matcher("VF2").run(
            g, rq.graph, max_embeddings=10**6
        )
        assert out.num_embeddings == expected.num_embeddings
        translated = [
            rq.translate_embedding(e) for e in out.embeddings
        ]
        assert canonical_embeddings(translated) == (
            canonical_embeddings(expected.embeddings)
        )


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_census_permutation_invariant(data):
    g = data.draw(stores(max_nodes=10))
    perm = data.draw(permutations_of(g.order))
    a = label_path_census(g, 3)
    b = label_path_census(g.permuted(perm), 3)
    assert a.counts == b.counts


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_census_query_counts_dominated_by_store(data):
    """Soundness of FTV count pruning: a subgraph's census counts never
    exceed its supergraph's."""
    g, q = data.draw(store_and_query())
    qc = label_path_census(q, 2)
    gc = label_path_census(g, 2)
    for seq, needed in qc.counts.items():
        assert gc.counts.get(seq, 0) >= needed


@st.composite
def sparse_graphs(draw):
    """A sparse labeled graph, connected or not: empty, a handful of
    vertices, or more than 64 so vertex masks span machine words;
    few enough edges that isolated vertices are the common case."""
    n = draw(
        st.one_of(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=65, max_value=90),
        )
    )
    labels = draw(
        st.lists(st.sampled_from("ABCDE"), min_size=n, max_size=n)
    )
    g = LabeledGraph(n, labels)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    for _ in range(draw(st.integers(min_value=0, max_value=n + n // 2))):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


@st.composite
def dense_graphs(draw):
    """A small graph of any density, up to complete, over one to three
    labels: triangles, shared neighbours and repeated labels around
    one middle edge are the common case."""
    n = draw(st.integers(min_value=0, max_value=12))
    alphabet = "ABC"[: draw(st.integers(min_value=1, max_value=3))]
    labels = draw(
        st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    )
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return LabeledGraph.from_edges(
        labels,
        [(u, v) for u in range(n) for v in range(u + 1, n)
         if rng.random() < p],
    )


@given(
    g=st.one_of(sparse_graphs(), dense_graphs()),
    known=st.sets(st.sampled_from("ABCDE")),
    max_length=st.integers(min_value=0, max_value=3),
    with_locations=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_coded_census_equals_label_reference(
    g, known, max_length, with_locations
):
    """``known`` is what the interner has seen: the graph's other
    labels take fresh negative codes, which do not sort like the
    labels, so the expected key is re-canonicalised in code space."""
    codes = LabelInterner([known]).encode_vertices(g.labels)
    code_of = dict(zip(g.labels, codes))
    assert all((code < 0) == (lab not in known)
               for lab, code in code_of.items())

    def coded(seq):
        return canonical_sequence(tuple(code_of[lab] for lab in seq))

    ref = label_path_census(g, max_length, with_locations)
    fast = coded_path_census(g, max_length, codes, with_locations)
    assert fast.counts == {
        coded(seq): count for seq, count in ref.counts.items()
    }
    assert {
        seq: location_vertices(mask)
        for seq, mask in fast.locations.items()
    } == {
        coded(seq): sorted(vertices)
        for seq, vertices in ref.locations.items()
    }


@st.composite
def vf2_cases(draw):
    """A stored graph and a query for the VF2 differential: the query
    is cut out of the store (so it embeds) or drawn on its own, over an
    alphabet with a label the store may lack; both may be disconnected
    and hold isolated vertices, and the query may be a single vertex.
    The third member is a root-candidate tuple for level 0."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))

    def scatter(n, labels, edges):
        g = LabeledGraph(n, [rng.choice(labels) for _ in range(n)])
        for _ in range(edges):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        return g

    # sizes come from ``rng``, not from ``draw``: hypothesis leans
    # towards the smallest values (a third of the stores it draws are
    # single vertices)
    n = rng.randint(1, 14)
    g = scatter(n, "ABC"[:rng.randint(1, 3)], rng.randint(0, 3 * n))
    adj = g.adjacency()
    nq = rng.randint(1, 6)
    shape = draw(st.sampled_from(["cut", "ball", "pieces", "scatter"]))
    if shape in ("cut", "ball"):
        picked = rng.sample(range(n), min(n, nq))
        if shape == "ball":
            # grown from one vertex through neighbours: a connected cut
            # keeps the store's cycles, the queries on which lookahead
            # rule 2 (frontier) rejects what rule 3 alone lets through
            picked = picked[:1]
            while len(picked) < min(n, nq):
                fringe = sorted(
                    {w for v in picked for w in adj[v]} - set(picked)
                )
                if not fringe:
                    break
                picked.append(rng.choice(fringe))
        sub, _ = g.induced_subgraph(picked)
        perm = list(range(sub.order))
        rng.shuffle(perm)
        q = sub.permuted(perm)
    elif shape == "pieces":
        # two or three pieces cut from disjoint parts of the store and
        # laid side by side: the query embeds, every piece after the
        # first opens a root level whose label pool holds vertices the
        # earlier pieces already took, and lone vertices make levels
        # with no unmatched neighbour (``q_total == 0``)
        picked = rng.sample(range(n), min(n, nq))
        cuts = sorted(rng.sample(range(len(picked) + 1), 2))
        q = disjoint_union([
            g.induced_subgraph(part)[0]
            for part in (
                picked[: cuts[0]], picked[cuts[0]: cuts[1]],
                picked[cuts[1]:],
            )
            if part
        ])
        perm = list(range(q.order))
        rng.shuffle(perm)
        q = q.permuted(perm)
    else:
        q = scatter(nq, "ABCZ"[:rng.randint(1, 4)], rng.randint(0, nq + 2))
    # in no order and with repeats: the engine reads them as a set
    roots = rng.sample(range(n), rng.randint(0, n))
    roots += rng.choices(roots, k=rng.randint(0, 2)) if roots else []
    rng.shuffle(roots)
    return g, q, tuple(roots)


def _drain(gen, limit=None):
    """``(yielded values, outcome)``; closed after ``limit`` yields
    (outcome None) when the engine has more to give."""
    yielded = []
    try:
        while limit is None or len(yielded) < limit:
            yielded.append(next(gen))
    except StopIteration as stop:
        return yielded, stop.value
    gen.close()
    return yielded, None


def _outcome_fields(outcome):
    return (
        outcome.found,
        outcome.num_embeddings,
        # item lists: dict equality would forgive a changed key order
        [list(e.items()) for e in outcome.embeddings],
        outcome.exhausted,
        outcome.killed,
        outcome.algorithm,
    )


@given(case=vf2_cases())
@settings(max_examples=150, deadline=None)
def test_vf2_yields_what_the_recursive_search_yields(case):
    g, q, roots = case
    index = GraphIndex(g)
    for policy in SELECTION_POLICIES:
        new = VF2Matcher(policy)
        old = RecursiveVF2Matcher(policy)
        shared = new.plan(q)  # None under rarity: planned per engine
        for options in (
            {},
            {"max_embeddings": 1},
            {"max_embeddings": 3, "count_only": True},
            {"max_embeddings": 0},
            {"root_candidates": roots},
            {"root_candidates": roots[: len(roots) // 2],
             "max_embeddings": 2},
        ):
            # the oracle walks the tuple as given; the engine's
            # contract is the tuple's set in ascending ID order
            oracle_options = dict(options)
            if "root_candidates" in options:
                oracle_options["root_candidates"] = tuple(
                    sorted(set(options["root_candidates"]))
                )
            want, want_out = _drain(old.engine(index, q, **oracle_options))
            for plan in (None, shared):
                got, got_out = _drain(
                    new.engine(index, q, plan=plan, **options)
                )
                assert got == want
                assert _outcome_fields(got_out) == _outcome_fields(want_out)


def _consume(gen, cap):
    """Pull batches until ``cap`` steps are consumed, then close — what
    a budget kill does.  ``(batches pulled, outcome or None if the
    engine had more to give)``; a closed engine must stay closed."""
    pulled = []
    consumed = 0
    outcome = None
    try:
        while consumed < cap:
            inc = next(gen)
            pulled.append(inc)
            consumed += 1 if inc is None else inc
    except StopIteration as stop:
        outcome = stop.value
    gen.close()
    assert next(gen, "closed") == "closed"
    return pulled, outcome


@given(case=vf2_cases())
@settings(max_examples=60, deadline=None)
def test_vf2_is_killed_where_the_recursive_search_is(case):
    """A kill at every cap from 0 to the solo cost (of a search longer
    than 150 steps: the first 150 caps and the last three — the sweep
    is quadratic): what was consumed before the kill is what the
    recursive search had yielded by then, and closing mid-search
    raises nothing and leaves the engine closed."""
    g, q, _ = case
    index = GraphIndex(g)
    for policy in SELECTION_POLICIES:
        new = VF2Matcher(policy)
        old = RecursiveVF2Matcher(policy)
        shared = new.plan(q)
        total = sum(_drain(old.engine(index, q))[0])
        caps = {*range(min(total, 150) + 1), total - 1, total, total + 1}
        for cap in sorted(cap for cap in caps if cap >= 0):
            want, want_out = _consume(old.engine(index, q), cap)
            got, got_out = _consume(
                new.engine(index, q, plan=shared), cap
            )
            assert got == want
            assert (got_out is None) == (want_out is None)
            if got_out is not None:
                assert _outcome_fields(got_out) == _outcome_fields(want_out)


@given(case=vf2_cases(), k=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_vf2_engines_leak_nothing_into_a_shared_plan(case, k):
    """Close both searches after ``k`` yields: the prefixes agree, and
    a second engine on the same plan — started while the first is
    suspended mid-search, finished after it is closed — still runs the
    whole search as if it were alone."""
    g, q, _ = case
    index = GraphIndex(g)
    for policy in ("id", "degree"):
        new = VF2Matcher(policy)
        plan = new.plan(q)
        want, want_out = _drain(
            RecursiveVF2Matcher(policy).engine(index, q)
        )
        first = new.engine(index, q, plan=plan)
        head = [next(first) for _ in range(min(k, len(want)))]
        assert head == want[: len(head)]
        second = new.engine(index, q, plan=plan)
        got = [next(second) for _ in range(min(1, len(want)))]
        first.close()
        rest, got_out = _drain(second)
        assert got + rest == want
        assert _outcome_fields(got_out) == _outcome_fields(want_out)
        killed, _ = _drain(
            RecursiveVF2Matcher(policy).engine(index, q), limit=k
        )
        assert killed == head


#: (production matcher, its recursive oracle), two configs each
NFV_PAIRS = (
    (GraphQLMatcher(refine_level=0), RecursiveGraphQLMatcher(refine_level=0)),
    (GraphQLMatcher(refine_level=4), RecursiveGraphQLMatcher(refine_level=4)),
    (
        SPathMatcher(radius=3, max_path_length=4),
        RecursiveSPathMatcher(radius=3, max_path_length=4),
    ),
    (
        SPathMatcher(radius=2, max_path_length=2),
        RecursiveSPathMatcher(radius=2, max_path_length=2),
    ),
)


@given(case=vf2_cases())
@settings(max_examples=150, deadline=None)
def test_gql_and_spa_yield_what_the_recursive_engines_yield(case):
    g, q, _ = case
    for new, old in NFV_PAIRS:
        index = new.prepare(g)
        old_index = old.prepare(g)
        assert type(index) is not type(old_index)
        for max_embeddings in (1, 7, 1000):
            for count_only in (False, True):
                options = {
                    "max_embeddings": max_embeddings,
                    "count_only": count_only,
                }
                want, want_out = _drain(old.engine(old_index, q, **options))
                got, got_out = _drain(new.engine(index, q, **options))
                assert got == want
                assert _outcome_fields(got_out) == _outcome_fields(want_out)


@given(case=vf2_cases())
@settings(max_examples=60, deadline=None)
def test_gql_and_spa_are_killed_where_the_recursive_engines_are(case):
    """``drive`` under every kill cap up to the solo cost and one past
    it, where the search completes (of a search longer than 200 steps:
    the first 200 caps and the last three — the sweep is quadratic)."""
    g, q, _ = case
    for new, old in NFV_PAIRS:
        index = new.prepare(g)
        old_index = old.prepare(g)
        solo = drive(old.engine(old_index, q)).steps
        caps = {*range(1, min(solo, 200) + 1), solo - 1, solo, solo + 1}
        for cap in sorted(cap for cap in caps if cap >= 1):
            budget = Budget(max_steps=cap)
            got_out = drive(new.engine(index, q), budget)
            want_out = drive(old.engine(old_index, q), budget)
            assert got_out.killed == want_out.killed == (cap <= solo)
            assert got_out.steps == want_out.steps


@given(
    costs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**6),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    overhead=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_race_from_costs_is_min_of_completions(costs, overhead):
    table = {
        i: CostRecord(steps=s, found=f and not k, killed=k)
        for i, (s, f, k) in enumerate(costs)
    }
    race = race_from_costs(
        table,
        budget_steps=10**6,
        overhead=OverheadModel(per_variant_steps=overhead),
    )
    completing = [c for c in table.values() if not c.killed]
    if completing:
        assert not race.killed
        assert race.steps == (
            min(c.steps for c in completing) + overhead * len(table)
        )
    else:
        assert race.killed
        assert race.steps == 10**6 + overhead * len(table)


def _costed(steps: int, batch: int, found: bool):
    """An engine that completes after exactly ``steps``, yielding
    batches of up to ``batch`` steps."""
    left = steps
    while left:
        inc = min(batch, left)
        left -= inc
        yield inc
    return MatchOutcome(found=found)


#: (steps, batch, found) per variant
_COSTED = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=9),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


def _live_race(variants, cap, quantum, starts):
    return RaceTask(
        {i: _costed(n, b, f) for i, (n, b, f) in enumerate(variants)},
        budget=Budget(max_steps=cap),
        quantum=quantum,
        starts=starts,
    ).run_to_completion()


def _cost_table(variants, cap):
    killed = {i: cap is not None and n >= cap for i, (n, _, _) in
              enumerate(variants)}
    return {
        i: CostRecord(
            steps=min(n, cap) if killed[i] else n,
            found=f and not killed[i],
            killed=killed[i],
        )
        for i, (n, _, f) in enumerate(variants)
    }


@given(
    variants=_COSTED,
    offsets=st.lists(
        st.integers(min_value=0, max_value=300), min_size=5, max_size=5
    ),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=320)),
    quantum=st.sampled_from([1, 2, 7, 64, 4096]),
)
@settings(max_examples=150, deadline=None)
def test_race_task_with_offsets_is_its_cost_replay(
    variants, offsets, cap, quantum
):
    starts = dict(enumerate(offsets[: len(variants)]))
    live = _live_race(variants, cap, quantum, starts)
    twin = race_from_costs(
        _cost_table(variants, cap), budget_steps=cap, starts=starts
    )
    assert live.winner == twin.winner
    assert live.steps == twin.steps
    assert live.found == twin.found
    assert live.killed == twin.killed
    for i, billed in live.per_variant_steps.items():
        tie = 1 if live.winner is not None and i < live.winner else 0
        assert 0 <= billed - twin.per_variant_steps[i] <= tie, i


@given(
    costs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * HEAD_START_STEPS),
            st.integers(min_value=16, max_value=512),
        ),
        min_size=2,
        max_size=4,
    ),
    found=st.booleans(),
    cap=st.one_of(
        st.none(), st.integers(min_value=1, max_value=3 * HEAD_START_STEPS)
    ),
)
@settings(max_examples=60, deadline=None)
def test_staged_race_answers_as_full_width_within_its_head_start(
    costs, found, cap
):
    # every variant answers alike (the paper's invariant); only costs vary
    variants = [(n, b, found) for n, b in costs]
    staged = _live_race(
        variants, cap, 64, race_starts(list(range(len(variants))))
    )
    full = _live_race(variants, cap, 64, None)
    assert staged.found == full.found
    assert staged.killed == full.killed
    staged_work, full_work = staged.work_steps, full.work_steps
    assert staged_work <= full_work + HEAD_START_STEPS
    if full.winner == 0:
        assert staged.winner == 0
        assert staged_work <= full_work


@given(
    variants=_COSTED,
    offsets=st.lists(
        st.integers(min_value=0, max_value=300), min_size=5, max_size=5
    ),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=320)),
    quantum=st.sampled_from([1, 2, 7, 64, 4096]),
    close_after=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    builders=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_race_task_turns_as_the_dict_keyed_oracle(
    variants, offsets, cap, quantum, close_after, builders
):
    """Round for round, the positional :class:`RaceTask` (its engines
    given as generators or as builders) reports what the dict-keyed
    class it replaced reports, also when closed mid-race; a closed or
    settled race leaves no engine it built running."""
    starts = dict(enumerate(offsets[: len(variants)]))
    budget = Budget(max_steps=cap)
    built = []

    def build(n, b, f):
        built.append(_costed(n, b, f))
        return built[-1]

    live = RaceTask(
        {
            i: partial(build, *v) if builders else build(*v)
            for i, v in enumerate(variants)
        },
        budget=budget, quantum=quantum, starts=starts,
    )
    oracle = DictRaceTask(
        {i: _costed(*v) for i, v in enumerate(variants)},
        budget=budget, quantum=quantum, starts=starts,
    )
    assert live.width == oracle.width
    turns = 0
    while oracle.outcome is None:
        if turns == close_after:
            live.close()
            oracle.close()
            assert live.width == oracle.width == 0
            assert all(gen.gi_frame is None for gen in built)
            return
        live.round()
        oracle.round()
        turns += 1
        assert live.last_round_steps == oracle.last_round_steps, turns
        assert live.width == oracle.width, turns
    got, want = live.outcome, oracle.outcome
    assert got is not None
    assert (got.winner, got.steps, got.found, got.killed) == (
        want.winner, want.steps, want.found, want.killed
    )
    assert got.per_variant_steps == want.per_variant_steps
    assert list(got.per_variant_steps) == list(want.per_variant_steps)
    assert all(gen.gi_frame is None for gen in built)


def _mutate(draw, index, graph):
    """Put ``index`` through a random add / remove / re-add sequence,
    warming (sealing every path) or probing a random stride of the
    paths (sealing those) at random points on the way, so mutations
    meet paths with and without a table alike.  Yields after every
    step."""
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        live, dead = index.live_ids(), sorted(index.tombstones)
        op = draw(st.sampled_from(
            ["add"] + ["remove"] * bool(live) + ["readd"] * bool(dead)
        ))
        if op == "add":
            index.add_graph(draw(graph))
        elif op == "remove":
            index.remove_graphs([draw(st.sampled_from(live))])
        else:
            index.add_graph(draw(graph), draw(st.sampled_from(dead)))
        yield
        after = draw(st.sampled_from(["warm", "probe", "leave"]))
        if after == "warm":
            index.warm()
        elif after == "probe":
            step = draw(st.integers(min_value=1, max_value=4))
            paths = list(index.trie.postings)
            for seq in paths[draw(st.integers(0, step - 1))::step]:
                index.trie.mask_ge(seq, draw(st.integers(1, 3)))


@st.composite
def base_indexes(draw, interner=None, classes=(GrapesIndex, GGSXIndex)):
    """A fresh Grapes or GGSX index and the strategy its newcomers
    come from.  Base graphs and newcomers are small connected ``ABC``
    graphs or sparse ``ABCDE`` ones of up to 90 vertices, so newcomers
    bring labels the interner has to append and location masks span
    several bytes.  ``interner`` is the code space to build in, as a
    collection hands its own to each of its indexes."""
    cls = draw(st.sampled_from(classes))
    graph = st.one_of(stores(), sparse_graphs())
    index = cls(
        draw(st.lists(graph, min_size=1, max_size=3)),
        max_path_length=draw(st.integers(min_value=1, max_value=3)),
        interner=interner,
    )
    if draw(st.booleans()):
        index.warm()
    return index, graph


@st.composite
def mutated_indexes(draw):
    """A Grapes or GGSX index after a random :func:`_mutate`
    sequence."""
    index, graph = draw(base_indexes())
    for _ in _mutate(draw, index, graph):
        pass
    return index


def _postings(index):
    return index.trie.postings, index.trie.locations


@given(
    index=mutated_indexes(),
    queries=st.lists(store_and_query(), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_index_codec_round_trips_a_mutated_index(index, queries):
    blob = encode_index(index)
    # the rows name label codes and the blob no label: the code order
    # travels beside it, as the dataset record's ``labels`` does
    interner = LabelInterner.from_code_order(index.interner.labels())
    restored = decode_index(
        blob, list(index.graphs), index_method(index),
        index.max_path_length, interner,
    )
    assert _postings(restored) == _postings(index)
    assert restored.tombstones == index.tombstones
    assert restored.interner is interner
    assert interner.code_of == index.interner.code_of
    assert encode_index(restored) == blob
    for _, query in queries:
        assert restored.filter(query) == index.filter(query)


def _brute_mask_ge(postings, needed):
    want = 0
    for gid, count in postings.items():
        if count >= needed:
            want |= 1 << gid
    return want


def _check_tables(trie):
    """Every table the trie holds right now — built by a probe or a
    seal before or after any mutation — is the seal of its path's
    current row and answers every threshold as the brute force does,
    and no table or row outlives its path's postings.  Reads the
    tables where they stand: nothing here seals a path."""
    assert not any(row == {} for row in trie.postings.values())
    assert set(trie.tables) <= set(trie.postings)
    for seq, table in trie.tables.items():
        postings = trie.postings[seq]
        assert table == _seal_row(postings)
        counts = set(postings.values())
        for needed in {1} | counts | {c + 1 for c in counts} | {
            c - 1 for c in counts if c > 1
        }:
            assert mask_ge(table, needed) == _brute_mask_ge(
                postings, needed
            )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_table_present_is_the_seal_of_its_row(data):
    """A mutation drops the table of every path whose row it touches,
    so a table that survives one — or a probe or a seal made since —
    is the seal of the row as it stands, after every step; and every
    path answers every threshold as the brute force over its row does,
    whether or not a table was there before the probe."""
    index, graph = data.draw(base_indexes())
    trie = index.trie
    _check_tables(trie)
    for _ in _mutate(data.draw, index, graph):
        _check_tables(trie)
    rows = trie.postings
    for seq, postings in rows.items():
        counts = set(postings.values())
        for needed in {1} | counts | {c + 1 for c in counts}:
            assert trie.mask_ge(seq, needed) == _brute_mask_ge(
                postings, needed
            )
    assert set(trie.tables) == set(rows)
    _check_tables(trie)
    assert index.warm()["sealed_nodes"] == len(rows) == len(trie.tables)


def _rebuilt(index):
    """``(live ids, an index built from scratch over those graphs)``,
    in the mutated index's interner: labels a newcomer appended sit
    after the older ones whatever their sort order, and a code order
    picks the canonical direction whose suffixes GGSX counts."""
    live = index.live_ids()
    fresh = type(index)(
        [index.graphs[gid] for gid in live], index.max_path_length,
        interner=index.interner,
    )
    return live, fresh


@given(
    index=mutated_indexes(),
    queries=st.lists(store_and_query(), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_a_mutated_index_filters_as_a_rebuilt_one(index, queries):
    """Incremental postings, tombstones and patched tables against a
    from-scratch build of the live graphs: the same candidates, before
    and after the mutated index drains its reseal."""
    if not index.live_ids():
        for _, query in queries:
            assert index.filter(query) == []
        return
    live, fresh = _rebuilt(index)
    for warmed in (False, True):
        for _, query in queries:
            assert index.filter(query) == [
                live[local] for local in fresh.filter(query)
            ]
        index.warm()
        index._invalidate_censuses()


def _reports(index, query):
    return [
        (r.graph_id, r.matched, r.steps, r.killed, r.components_tried)
        for r in index.query(query, Budget(max_steps=5_000)).reports
    ]


@given(
    data=st.data(),
    queries=st.lists(store_and_query(), min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_locations_derived_on_first_verify_equal_the_eager_reference(
    data, queries
):
    index, graph = data.draw(base_indexes(classes=(GrapesIndex,)))
    # the fresh index, then after every step (the generator is lazy)
    for _ in chain([None], _mutate(data.draw, index, graph)):
        stored = stored_locations(index)
        restored = decode_index(
            encode_index(index), list(index.graphs), "Grapes",
            index.max_path_length,
            LabelInterner.from_code_order(index.interner.labels()),
        )
        assert not restored.trie.locations
        for _, query in queries:
            for lazy in (index, restored):
                for gid in range(len(index.graphs)):
                    assert lazy.feature_locations(query, gid) == (
                        feature_locations_reference(
                            index, query, gid, stored
                        )
                    )
                assert lazy.trie.locations.keys() <= set(index.live_ids())
        live = index.live_ids()
        if not live:
            continue
        # a twin whose every posting holds its mask before any verify
        eager = GrapesIndex(
            [index.graphs[gid] for gid in live], index.max_path_length,
            interner=index.interner,
        )
        for local, gid in enumerate(live):
            eager.trie.locate(local, {
                seq: mask for (seq, g), mask in stored.items() if g == gid
            })
        for _, query in queries:
            want = [
                (live[local], *rest)
                for local, *rest in _reports(eager, query)
            ]
            assert _reports(index, query) == want
            assert _reports(restored, query) == want


PPI = build_ftv_graphs("ppi", "tiny")
#: what a newcomer's vertices may be labelled: labels every ``ppi``
#: graph carries, and three nobody does — sorting before, between and
#: after them — which are new to the collection the first time one is
#: added and new to only a shard the next time
PALETTE = sorted({lab for g in PPI for lab in g.labels})[:3] + [
    "A!", "L35", "~z",
]


@st.composite
def newcomers(draw):
    """A small connected graph over :data:`PALETTE`."""
    g = draw(stores(max_nodes=9))
    relabel = dict(zip("ABC", draw(st.permutations(PALETTE))))
    return LabeledGraph.from_edges(
        [relabel[lab] for lab in g.labels], g.edges()
    )


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_shard_indexes_of_a_mutated_catalog_filter_as_one_index(data):
    shards = data.draw(st.integers(min_value=1, max_value=4))
    strategy = data.draw(st.sampled_from(["size_balanced", "hash"]))
    catalog = ShardedCatalog(num_shards=shards, assignment=strategy)
    entry = catalog.load("ppi", scale="tiny")
    single = GrapesIndex(list(PPI), max_path_length=SERVED_PATH_LENGTH)
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        live, dead = single.live_ids(), sorted(single.tombstones)
        op = data.draw(st.sampled_from(
            ["add"] * 2 + ["remove"] * (len(live) > 1)
            + ["readd"] * bool(dead)
        ))
        if op == "remove":
            gid = data.draw(st.sampled_from(live))
            single.remove_graphs([gid])
            catalog.remove_graph("ppi", gid)
            continue
        graph = data.draw(newcomers())
        gid = data.draw(st.sampled_from(dead)) if op == "readd" else None
        shard = data.draw(st.integers(min_value=0, max_value=shards - 1))
        gid = single.add_graph(graph, gid)
        assert catalog.add_graph("ppi", graph, shard, gid) == gid
    assert entry.interner.code_of == single.interner.code_of
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    queries = [
        extract_query(
            single.graphs[gid], min(k, single.graphs[gid].size), rng
        )
        for gid in single.live_ids()
        for k in (1, 3)
        if single.graphs[gid].size
    ]

    def agrees(some_catalog):
        some = some_catalog.get("ppi")
        for shard in some.involved_shards():
            index = some.shard_entry(shard).ftv_index
            assert index.interner is some.interner
        for query in queries:
            got = sorted(
                some.assignment[shard][local]
                for shard in some.involved_shards()
                for local in some.shard_entry(shard).ftv_index.filter(query)
            )
            assert got == single.filter(query)

    agrees(catalog)
    with tempfile.TemporaryDirectory() as root:
        StoreWriter(root).write_catalog(catalog)
        booted = ShardedCatalog(
            num_shards=shards, assignment=strategy, store=root
        )
        booted.load("ppi", scale="tiny")
        blobs = 1 + len(entry.involved_shards())
        assert booted.store.as_metrics()["restores"] == blobs
        assert booted.store.rebuilds == booted.store.misses == 0
        assert booted.get("ppi").interner.labels() == (
            entry.interner.labels()
        )
        agrees(booted)


def _routed_queries(entry, rng, alien):
    """Three queries carved out of random live graphs of ``entry`` and
    one with a label nobody has, each a fresh object so the result
    cache never answers for the router."""
    live = entry.live_graph_ids()
    return [
        extract_query(g, rng.randint(1, min(5, g.size)), rng)
        for g in (entry.graphs[rng.choice(live)] for _ in range(3))
        if g.size
    ] + [alien.permuted(list(range(alien.order)))]


@given(
    data=st.data(),
    shards=st.integers(min_value=2, max_value=3),
    strategy=st.sampled_from(["size_balanced", "hash"]),
)
@settings(max_examples=10, deadline=None)
def test_routed_plans_prune_exactly_the_partitions_that_probe_empty(
    data, shards, strategy
):
    """Along a random add / remove / re-add / reassign / dark-and-back
    sequence on a generated collection: after every step the route
    plan prunes exactly the shards whose live partition a freshly
    built index filters to nothing — keeping the lowest involved
    shard when that is all of them, racing a dark shard unpruned —
    hands each probed shard exactly that partition's candidates, and
    a routed service answers every query as an unrouted one does."""
    services = [
        Service(workers=4, shards=shards, assignment=strategy, routing=r)
        for r in (True, False)
    ]
    for svc in services:
        svc.load_dataset("ppi", scale="tiny")
    catalogs = [svc.catalog for svc in services]
    entry = catalogs[0].get("ppi")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    alien = LabeledGraph.from_edges(["~alien", "~alien"], [(0, 1)])
    decide = data.draw(st.booleans())
    options = QueryOptions(rewritings=("Orig", "DND"), decision_only=decide)

    def plans_are_exact(dark=None):
        live = entry.live_graph_ids()
        oracle = GrapesIndex(
            [entry.graphs[gid] for gid in live], SERVED_PATH_LENGTH
        )
        involved = entry.involved_shards()
        for query in _routed_queries(entry, rng, alien):
            hits = {live[local] for local in oracle.filter(query)}
            want = {
                shard: sorted(hits & set(entry.assignment[shard]))
                for shard in involved
                if shard != dark
            }
            empty = tuple(shard for shard in want if not want[shard])
            survivors = tuple(s for s in involved if s not in empty)
            if not survivors:
                survivors, empty = involved[:1], involved[1:]
            counts = coded_path_census(
                query, SERVED_PATH_LENGTH,
                entry.interner.encode_vertices(query.labels),
            ).counts
            plan = entry.router.plan(counts, involved, decide)
            assert sorted(plan.order) == list(survivors)
            assert plan.pruned == empty
            if len(involved) < 2:
                # a fan-out of one is not routed: its race probes
                assert plan.candidates == {}
                continue
            assert {
                shard: [entry.assignment[shard][local] for local in found]
                for shard, found in plan.candidates.items()
            } == want
            if decide:
                assert plan.order == tuple(sorted(
                    survivors, key=lambda s: (-len(want.get(s, ())), s)
                ))

    def routed_answers_as_unrouted():
        queries = _routed_queries(entry, rng, alien)
        tickets = [
            [svc.submit("ppi", q, options=options) for q in queries]
            for svc in services
        ]
        for svc in services:
            svc.run_until_idle()
        for routed, unrouted in zip(*tickets):
            assert routed.result.found == unrouted.result.found
            if not decide:
                assert routed.result.matching_ids == (
                    unrouted.result.matching_ids
                )

    plans_are_exact()
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        live, dead = entry.live_graph_ids(), sorted(entry.tombstones)
        op = data.draw(st.sampled_from(
            ["add", "reassign", "dark"] + ["remove"] * (len(live) > 1)
            + ["readd"] * bool(dead)
        ))
        if op == "remove":
            gid = data.draw(st.sampled_from(live))
            for catalog in catalogs:
                catalog.remove_graph("ppi", gid)
        elif op in ("add", "readd"):
            graph = data.draw(newcomers())
            gid = data.draw(st.sampled_from(dead)) if op == "readd" else None
            shard = data.draw(st.integers(min_value=0, max_value=shards - 1))
            for catalog in catalogs:
                catalog.add_graph("ppi", graph, shard, gid)
        elif op == "reassign":
            assignment = [list(ids) for ids in entry.assignment]
            gid = data.draw(st.sampled_from(range(len(entry.graphs))))
            for ids in assignment:
                if gid in ids:
                    ids.remove(gid)
            assignment[
                data.draw(st.integers(min_value=0, max_value=shards - 1))
            ].append(gid)
            for catalog in catalogs:
                catalog.reassign("ppi", assignment)
        else:
            shard = data.draw(st.sampled_from(entry.involved_shards()))
            catalogs[0].set_serving(shard, False)
            plans_are_exact(dark=shard)
            catalogs[0].set_serving(shard, True)
        plans_are_exact()
        routed_answers_as_unrouted()


#: probes carved out of the stored ``ppi`` graphs, answered positively
PROBES = [q.graph for q in generate_workload(PPI, 6, 3, seed=5)]


@given(data=st.data(), with_store=st.booleans())
@settings(max_examples=15, deadline=None)
def test_replica_churn_beside_mutations_serves_the_oracle(data, with_store):
    """Kills, regrows, adds and removes interleaved on a 2 x 2 service:
    after every quiesce the served collection answers as a rebuild
    of its live graphs, and a dark shard re-warms from the store only
    while no mutation has made its blob stale."""
    with tempfile.TemporaryDirectory() as root:
        if with_store:
            warm = ShardedCatalog(num_shards=2, replicas=2)
            warm.load("ppi", scale="tiny")
            StoreWriter(root).write_catalog(warm)
        svc = Service(
            workers=2, shards=2, replicas=2,
            store=root if with_store else None,
        )
        svc.load_dataset("ppi", scale="tiny")
        entry = svc.catalog.get("ppi")
        reader = svc.catalog.store
        probes = list(PROBES)
        mutated = False

        def regrow(shard):
            dark = not svc.replica_set.ids(shard)
            before = reader.restores if reader is not None else 0
            svc.add_replica(shard)
            if reader is not None:
                warmed = dark and bool(entry.assignment[shard])
                assert reader.restores == before + (warmed and not mutated)

        def served_is_the_oracle():
            if all(
                svc.replica_set.ids(s) for s in entry.involved_shards()
            ):
                assert collection_digest(svc, "ppi", probes) == (
                    oracle_digest(svc, "ppi", probes)
                )

        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            op = data.draw(st.sampled_from(
                ["kill", "add_replica", "add_graph", "remove_graph"]
            ))
            shard = data.draw(st.integers(min_value=0, max_value=1))
            if op == "kill":
                ids = svc.replica_set.ids(shard)
                if ids:
                    svc.kill_replica(shard, data.draw(st.sampled_from(ids)))
            elif op == "add_replica":
                regrow(shard)
            else:
                if op == "add_graph":
                    graph = data.draw(newcomers())
                    ticket = svc.add_graph("ppi", graph)
                else:
                    live = entry.live_graph_ids()
                    if len(live) < 2:
                        continue
                    ticket = svc.remove_graph(
                        "ppi", data.draw(st.sampled_from(live))
                    )
                svc.pump()
                assert ticket.applied or ticket.retry_after is not None
                if ticket.applied and op == "add_graph":
                    probes.append(graph)
                mutated |= ticket.applied
            served_is_the_oracle()
        for shard in range(2):
            if not svc.replica_set.ids(shard):
                regrow(shard)
        served_is_the_oracle()


#: queries the drain property submits: a few distinct ones, so draws
#: repeat them and identical in-flight submissions coalesce
DRAIN_QUERIES = [q.graph for q in generate_workload(PPI, 4, 3, seed=17)]


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_nothing_outlives_a_drain(data):
    """Submits, replica faults, scaling and mutations interleaved with
    pumps on a 2 x 2 service: once it drains, no flight record, leader
    key or staged ticket is left, no race is attached, every ticket is
    DONE or REJECTED and every trace closed itself."""
    from repro.service import FaultEvent, FaultInjector, QueryOptions
    from repro.service.admission import TicketState

    svc = Service(workers=4, shards=2, replicas=2)
    svc.load_dataset("ppi", scale="tiny")
    entry = svc.catalog.get("ppi")
    replicas = svc.replica_set
    tickets = []
    ops = st.sampled_from([
        "submit", "submit", "submit", "kill", "wedge", "fail_task",
        "add_replica", "retire", "add_graph", "remove_graph",
    ])
    for _ in range(data.draw(st.integers(min_value=1, max_value=14))):
        op = data.draw(ops)
        shard = data.draw(st.integers(min_value=0, max_value=1))
        serving = replicas.ids(shard)
        if op == "submit":
            options = QueryOptions(
                rewritings=("Orig", "DND"),
                decision_only=data.draw(st.booleans()),
            )
            tickets.append(svc.submit(
                "ppi", data.draw(st.sampled_from(DRAIN_QUERIES)),
                options=options,
            ))
        elif op == "kill" and serving:
            svc.kill_replica(shard, data.draw(st.sampled_from(serving)))
        elif op == "wedge" and serving:
            svc.wedge_replica(
                shard, data.draw(st.sampled_from(serving)),
                data.draw(st.integers(min_value=1, max_value=3)),
            )
        elif op == "fail_task":
            svc.install_faults(FaultInjector([
                FaultEvent(at=svc.clock, kind="fail_task"),
            ]))
        elif op == "add_replica":
            svc.add_replica(shard)
        elif op == "retire" and svc.idle:
            svc.retire_replica(shard)
        elif op == "add_graph":
            svc.add_graph("ppi", data.draw(newcomers()))
        elif op == "remove_graph" and len(entry.live_graph_ids()) > 1:
            svc.remove_graph(
                "ppi", data.draw(st.sampled_from(entry.live_graph_ids()))
            )
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            svc.pump()
    svc.run_until_idle()
    fanout = svc.fanout
    assert fanout.flights == {}
    assert fanout.leaders == {} and fanout.staged is None
    assert svc.dispatcher.active == 0
    for ticket in tickets:
        assert ticket.state in (TicketState.DONE, TicketState.REJECTED)
        trace = svc.trace(ticket.id)
        assert trace.done
        assert not any("auto_closed" in s.attrs for s in trace.spans)


def _solo_sweep(svc, flight, shard, variant, query):
    """One shard sweep of ``variant`` run alone: its cost and outcome."""
    sub = flight.entry.shard_entry(shard)
    perm = make_rewriting(variant.rewriting).permutation(query, sub.stats)
    return svc.planner.ftv_sweep(
        sub.ftv_index, Rewrite(query.permuted(perm)),
        sub.ftv_index.filter(query), flight.options.decision_only,
    )


def _stall_a_head(svc, queries):
    """Wedge the head shard of the first query whose decision route
    plan stages, until that query's hedged leg has raced to its end
    (its head would otherwise find first and cancel it before its
    start, as on most generated queries); that query's position and
    hedged shard, or None when no plan stages."""
    entry = svc.catalog.get("ppi")
    for pos, query in enumerate(queries):
        counts = coded_path_census(
            query, SERVED_PATH_LENGTH,
            entry.interner.encode_vertices(query.labels),
        ).counts
        plan = entry.router.plan(counts, entry.involved_shards(), True)
        if plan.staged:
            head, hedged = plan.order
            # the hedged leg starts HEDGE_STEPS late and runs at most
            # the ticket's budget past its field's head start
            budget = svc.admission.default_policy.step_budget
            ticks = (
                HEDGE_STEPS + HEAD_START_STEPS + budget
            ) // svc.dispatcher.quantum + 2
            svc.wedge_replica(head, svc.replica_set.ids(head)[0], ticks)
            return pos, hedged
    return None


def _hedge_offset(svc, ticket, shard):
    """The start offset the ticket's route plan gave ``shard``'s leg:
    ``HEDGE_STEPS`` for every shard a staged plan does not order first,
    else 0."""
    for span in svc.trace(ticket.id).spans:
        if span.name == "route_plan" and span.attrs["staged"]:
            return 0 if span.attrs["order"][0] == shard else HEDGE_STEPS
    return 0


@given(
    data=st.data(),
    head_start=st.sampled_from([8, 64, HEAD_START_STEPS]),
)
@settings(max_examples=10, deadline=None)
def test_a_served_ftv_race_is_its_sweeps_staged_replay(data, head_start):
    """On a generated ppi-like collection, over one and two shards,
    with and without ``decision_only``, racing two rewritings or three
    (``Orig`` absent, so the head is ``ILF``): every served answer is the
    reference matcher's, each shard race bills what
    ``race_from_costs`` replays from its sweeps' solo costs under the
    planner's schedule — a routed decision fan-out's later shard with
    every start moved by ``HEDGE_STEPS`` — (up to the live race's +1
    tie charge), and does at most the full-width race's work plus the
    head start.  The head start is drawn small as well, so the field
    joins on tiny graphs.  A generated query's head shard nearly always
    finds first and cancels its hedged sibling unstarted, so the
    two-shard decision runs wedge the head of the first query whose
    plan stages until its hedged leg has raced, and check that leg
    was replayed at its offset."""
    newcomers = ppi_like(
        num_graphs=data.draw(st.integers(min_value=0, max_value=2)),
        avg_nodes=data.draw(st.integers(min_value=20, max_value=60)),
        num_labels=8,
        seed=data.draw(st.integers(min_value=0, max_value=10**6)),
    )
    removed = data.draw(st.sampled_from([None, 0, 1, 2]))
    rewritings = data.draw(
        st.sampled_from([("Orig", "DND"), ("ILF", "IND", "DND")])
    )
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    graphs = list(PPI) + newcomers
    live = [g for gid, g in enumerate(graphs) if gid != removed]
    queries = [
        extract_query(g, rng.randint(1, min(6, g.size)), rng)
        for g in (rng.choice(live) for _ in range(3))
    ] + [data.draw(stores(max_nodes=5))]
    reference = ReferenceMatcher()
    truth = [
        tuple(
            gid for gid, g in enumerate(graphs)
            if gid != removed and reference.run(g, q, max_embeddings=1).found
        )
        for q in queries
    ]
    with patch("repro.service.planner.HEAD_START_STEPS", head_start):
        for shards in (1, 2):
            for decision in (False, True):
                svc = Service(workers=4, shards=shards)
                svc.load_dataset("ppi", scale="tiny")
                for graph in newcomers:
                    svc.add_graph("ppi", graph)
                if removed is not None:
                    svc.remove_graph("ppi", removed)
                svc.run_until_idle()
                legs = []
                done = svc.fanout.shard_done

                def record(flight, shard, outcome):
                    legs.append((flight, shard, outcome))
                    return done(flight, shard, outcome)

                svc.fanout.shard_done = record
                options = QueryOptions(
                    rewritings=rewritings, decision_only=decision
                )
                stalled = (
                    _stall_a_head(svc, queries)
                    if shards > 1 and decision else None
                )
                # the stalled query first, so it is admitted on the
                # first tick, before its head's pool fills
                order = list(range(len(queries)))
                if stalled is not None:
                    order.insert(0, order.pop(stalled[0]))
                tickets = [None] * len(queries)
                for pos in order:
                    tickets[pos] = svc.submit(
                        "ppi", queries[pos], options=options
                    )
                svc.run_until_idle()
                if stalled is not None:
                    # its hedged leg raced: its replay below starts
                    # every variant HEDGE_STEPS late
                    pos, hedged = stalled
                    assert [
                        _hedge_offset(svc, flight.ticket, shard)
                        for flight, shard, _ in legs
                        if flight.ticket is tickets[pos] and shard == hedged
                    ] == [HEDGE_STEPS]
                for ticket, expected in zip(tickets, truth):
                    assert not ticket.result.killed
                    assert ticket.result.found == bool(expected)
                    got = tuple(sorted(ticket.result.matching_ids))
                    if decision:
                        assert set(got) <= set(expected)
                    else:
                        assert got == expected
                assert legs
                for flight, shard, live_race in legs:
                    query, variants = flight.ticket.query, flight.variants
                    budget = flight.ticket.budget_steps
                    costs = {}
                    for v in variants:
                        out = drive(_solo_sweep(svc, flight, shard, v, query))
                        costs[v] = CostRecord(out.steps, out.found, False)
                    starts = race_starts(
                        variants, budget,
                        _hedge_offset(svc, flight.ticket, shard),
                    )
                    twin = race_from_costs(costs, budget, starts=starts)
                    assert live_race.winner == twin.winner
                    assert live_race.steps == twin.steps
                    assert live_race.found == twin.found
                    won = variants.index(twin.winner)
                    for i, v in enumerate(variants):
                        billed = live_race.per_variant_steps[v]
                        tie = 1 if i < won else 0
                        assert 0 <= billed - twin.per_variant_steps[v] <= tie
                    full = RaceTask(
                        {
                            v: _solo_sweep(svc, flight, shard, v, query)
                            for v in variants
                        },
                        budget=Budget(max_steps=budget),
                    ).run_to_completion()
                    assert live_race.work_steps <= (
                        full.work_steps + head_start
                    )
