"""Property-based tests (hypothesis) on core invariants.

Strategy: generate small random labeled stores and connected queries
grown from them, then assert the library's fundamental contracts:

* node-ID permutation yields isomorphic graphs (invariants preserved);
* every matcher agrees with brute force on found/count;
* rewritings are valid permutations and preserve answers;
* the path census is permutation-invariant and prefix-closed, and the
  packed-key coded census equals the label-space reference on counts
  and on decoded locations;
* the plan-driven explicit-stack VF2, whose pools and lookahead are
  bitmask expressions, yields batch for batch what the recursive,
  list-scanning search it replaced yields
  (``tests/_vf2_recursive.py``), also when one plan is shared between
  engines, and has consumed the same batches at every kill cap;
* the bitmask GraphQL and sPath engines yield, batch for batch, what
  the ``Counter``-signature recursive engines they replaced yield
  (``tests/_nfv_recursive.py``), and are killed where those are;
* race outcomes equal the per-variant minimum;
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
* the routing sketch ``note_add`` folds from the rows an add reported
  has bucket for bucket the bits of a fold off a walk of the trie, its
  ``features`` is the trie's, and a ``refresh`` only tightens it;
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
  restores every index and agrees.
"""

import random
import tempfile
from itertools import chain
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

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
from repro.indexing.sketch import FeatureSketch
from repro.indexing.trie import _Node
from repro.matching import (
    SELECTION_POLICIES,
    Budget,
    GraphIndex,
    GraphQLMatcher,
    SPathMatcher,
    VF2Matcher,
    drive,
    make_matcher,
)
from repro.matching.masks import mask_ge
from repro.psi import AttemptCost, OverheadModel, race_from_costs
from repro.rewriting import ALL_PAPER_REWRITINGS, LabelStats, make_rewriting
from repro.service.routing import ShardRouter
from repro.service.sharding import ShardedCatalog
from repro.store import StoreWriter
from repro.store.codec import decode_index, encode_index, index_method
from repro.workload import extract_query

from ._filter_reference import feature_locations_reference, stored_locations
from ._nfv_recursive import RecursiveGraphQLMatcher, RecursiveSPathMatcher
from ._vf2_recursive import RecursiveVF2Matcher
from .conftest import canonical_embeddings

ALGORITHMS = ("VF2", "QSI", "GQL", "SPA", "ULL", "TUR")


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


@given(
    g=sparse_graphs(),
    known=st.sets(st.sampled_from("ABCDE")),
    max_length=st.integers(min_value=0, max_value=4),
    with_locations=st.booleans(),
)
@settings(max_examples=60, deadline=None)
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
        i: AttemptCost(steps=s, found=f and not k, killed=k)
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


def _mutate(draw, index, graph):
    """Put ``index`` through a random add / remove / re-add sequence,
    warming (draining the reseal) or probing (sealing lazily) at
    random points on the way, so newcomers meet sealed, patched and
    unsealed nodes alike.  Yields ``(op, graph id, rows)`` after every
    step; ``rows`` is what an add reported, None for a remove."""
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        live, dead = index.live_ids(), sorted(index.tombstones)
        op = draw(st.sampled_from(
            ["add"] + ["remove"] * bool(live) + ["readd"] * bool(dead)
        ))
        rows = None
        if op == "add":
            rows = []
            gid = index.add_graph(draw(graph), None, rows)
        elif op == "remove":
            gid = draw(st.sampled_from(live))
            index.remove_graph(gid)
        else:
            rows = []
            gid = index.add_graph(
                draw(graph), draw(st.sampled_from(dead)), rows
            )
        yield op, gid, rows
        after = draw(st.sampled_from(["warm", "probe", "leave"]))
        if after == "warm":
            index.warm()
        elif after == "probe":
            for seq, _ in list(index.trie.iter_postings()):
                index.trie.mask_ge(seq, 1)


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
    return {
        seq: {gid: (p.count, p.locations) for gid, p in postings.items()}
        for seq, postings in index.trie.iter_postings()
    }


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


@given(index=mutated_indexes())
@settings(max_examples=60, deadline=None)
def test_reseal_after_mutation_equals_a_fresh_seal(index):
    """``seal`` skips nodes that still hold a threshold table, so a
    stale table would survive it: every node must answer as the brute
    force over its posting map does, at, between and past each count."""
    rows = list(index.trie.iter_postings())
    assert index.warm()["sealed_nodes"] == len(rows)
    fresh = type(index.trie)()
    for seq, postings in rows:
        fresh.install(seq, dict(postings))
    fresh.seal()
    for seq, postings in rows:
        assert index.trie._find(seq).thresholds == (
            fresh._find(seq).thresholds
        )
        counts = {p.count for p in postings.values()}
        for needed in {1} | counts | {c + 1 for c in counts}:
            want = 0
            for gid, posting in postings.items():
                if posting.count >= needed:
                    want |= 1 << gid
            assert index.trie.mask_ge(seq, needed) == want


def _brute_mask_ge(postings, needed):
    want = 0
    for gid, posting in postings.items():
        if posting.count >= needed:
            want |= 1 << gid
    return want


def _check_tables(trie):
    """Every table the trie holds right now — built by a drain, a lazy
    probe or an in-place patch — is the fresh seal of its posting map
    and answers every threshold as the brute force does.  Reads the
    tables where they stand: nothing here seals a node."""
    carrying = 0
    for seq, postings in trie.iter_postings():
        carrying += 1
        node = trie._find(seq)
        if node.thresholds is None:
            assert node in trie._unsealed
            continue
        fresh = _Node()
        fresh.postings = postings
        assert node.thresholds == fresh.seal()
        counts = {p.count for p in postings.values()}
        for needed in {1} | counts | {c + 1 for c in counts} | {
            c - 1 for c in counts if c > 1
        }:
            assert mask_ge(node.thresholds, needed) == _brute_mask_ge(
                postings, needed
            )
    assert trie.feature_count == carrying


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_tables_patched_in_place_equal_a_fresh_seal_at_every_step(data):
    """An add patches the tables of the sealed nodes it lands on, a
    GGSX merge, a remove and a revive unseal theirs: after every step
    whatever table a node holds is the one a fresh seal would build,
    ``seal`` returns the number of posting-carrying nodes and leaves
    nothing unsealed, and the lazily sealed rest agrees too."""
    index, graph = data.draw(base_indexes())
    trie = index.trie
    _check_tables(trie)
    for _ in _mutate(data.draw, index, graph):
        _check_tables(trie)
    rows = list(trie.iter_postings())
    for seq, postings in rows:
        for needed in {1} | {p.count for p in postings.values()}:
            assert trie.mask_ge(seq, needed) == _brute_mask_ge(
                postings, needed
            )
    assert trie.seal() == len(rows) == index.warm()["sealed_nodes"]
    assert not trie._unsealed
    assert all(trie._find(seq).thresholds for seq, _ in rows)
    _check_tables(trie)


def _walk_fold(router, index, gid=None):
    """The sketch of one graph's postings — or of all of them — folded
    off a walk of the shard trie."""
    return FeatureSketch.from_postings(
        (
            (seq, postings if gid is None else {gid: postings[gid]})
            for seq, postings in index.trie.iter_postings()
            if gid is None or gid in postings
        ),
        graph_count=1,
        num_buckets=router.num_buckets,
    )


@given(data=st.data(), elsewhere=st.lists(sparse_graphs(), max_size=2))
@settings(max_examples=60, deadline=None)
def test_sketch_folded_from_rows_equals_the_trie_walk_fold(data, elsewhere):
    """``note_add`` folds the rows the insert reported; what it used to
    do — walk the shard trie, pick the newcomer's postings back out,
    fold those — sets the same bits bucket for bucket.  ``features``
    is the trie's posting-carrying node count after every add (an
    upper bound after a remove), and a ``refresh`` after any sequence
    only ever tightens the sketch."""
    # graphs "on other shards" put labels into the collection's code
    # space that this shard's graphs do not carry, in an order its own
    # labels then have to be appended to
    interner = LabelInterner(g.labels for g in elsewhere)
    index, graph = data.draw(base_indexes(interner))
    router = ShardRouter(
        SimpleNamespace(interner=interner),
        num_buckets=data.draw(st.sampled_from([1, 7, 256])),
    )
    router.refresh(0, index)
    for op, gid, rows in _mutate(data.draw, index, graph):
        before = router.sketches[0]
        if op == "remove":
            router.note_remove()
            assert router.sketches[0] is before
            assert before.feature_count >= index.trie.feature_count
            continue
        router.note_add(0, index, rows)
        after = router.sketches[0]
        assert after.feature_count == sum(
            1 for _ in index.trie.iter_postings()
        )
        assert after.graph_count == len(index.graphs)
        if not rows:
            # a featureless newcomer: nothing to fold, so the router
            # takes the fold it uses for a partition it has no sketch of
            assert after.buckets == _walk_fold(router, index).buckets
            continue
        assert sorted(seq for seq, _ in rows) == sorted(
            seq
            for seq, postings in index.trie.iter_postings()
            if gid in postings
        )
        walked = _walk_fold(router, index, gid)
        assert after.buckets == tuple(
            a | b for a, b in zip(before.buckets, walked.buckets)
        )
    grown = router.sketches[0]
    router.refresh(0, index)
    assert all(
        fresh & ~kept == 0
        for fresh, kept in zip(router.sketches[0].buckets, grown.buckets)
    )


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
        assert not restored.trie.located
        for _, query in queries:
            for lazy in (index, restored):
                for gid in range(len(index.graphs)):
                    assert lazy.feature_locations(query, gid) == (
                        feature_locations_reference(
                            index, query, gid, stored
                        )
                    )
                assert lazy.trie.located <= set(index.live_ids())
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
    method, cls = data.draw(
        st.sampled_from([("Grapes", GrapesIndex), ("GGSX", GGSXIndex)])
    )
    shards = data.draw(st.integers(min_value=1, max_value=4))
    strategy = data.draw(st.sampled_from(["size_balanced", "hash"]))
    catalog = ShardedCatalog(num_shards=shards, assignment=strategy)
    entry = catalog.load("ppi", scale="tiny", ftv_method=method)
    single = cls(list(PPI), max_path_length=entry.max_path_length)
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        live, dead = single.live_ids(), sorted(single.tombstones)
        op = data.draw(st.sampled_from(
            ["add"] * 2 + ["remove"] * (len(live) > 1)
            + ["readd"] * bool(dead)
        ))
        if op == "remove":
            gid = data.draw(st.sampled_from(live))
            single.remove_graph(gid)
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
        booted.load("ppi", scale="tiny", ftv_method=method)
        blobs = 1 + len(entry.involved_shards())
        assert booted.store.as_metrics()["restores"] == blobs
        assert booted.store.rebuilds == booted.store.misses == 0
        assert booted.get("ppi").interner.labels() == (
            entry.interner.labels()
        )
        agrees(booted)
