"""Front-door tests: socket-served runs equal in-process runs.

A :class:`~repro.obs.server.BackgroundFrontDoor` serves a real TCP
socket on a daemon thread; an :class:`~repro.obs.client.ObsClient`
drives it query-by-query.  The load-bearing assertion is equivalence:
a workload submitted over the socket produces byte-for-byte the same
answers, step bills, and deterministic stats as the same workload run
in-process — the wall-clock front door adds zero perturbation to the
virtual-clock core.
"""

import pytest

from repro.harness import build_ftv_graphs
from repro.obs.client import ObsClient, query_payload
from repro.obs.server import BackgroundFrontDoor
from repro.service import (
    AdmissionController,
    QueryOptions,
    Service,
    TenantPolicy,
)
from repro.service.schema import SpecError
from repro.workload import default_tenant_mixes, generate_tenant_stream

BUDGET = 60_000
FTV_OPTS = {"rewritings": ["Orig", "DND"]}

#: stats keys that are pure functions of the submission history (the
#: socket run and the in-process run must agree on every one)
DETERMINISTIC_KEYS = (
    "clock_steps", "ticks", "work_steps", "completed", "active",
    "shards", "per_shard_work", "per_pool_work",
    "replicas", "faults", "fanout_waste", "routing", "latency_steps",
    "admission",
)


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards=2, replicas=2, **kw):
    svc = Service(
        workers=4,
        shards=shards,
        replicas=replicas,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        **kw,
    )
    svc.load_dataset("ppi", scale="tiny")
    return svc


def workload(graphs, per_tenant=6, seed=9):
    mixes = default_tenant_mixes(
        2, per_tenant, sizes=(4, 6), repeat_fraction=0.3
    )
    out = []
    for mix in mixes:
        for mq in generate_tenant_stream(graphs, mix, seed=seed):
            out.append((mix.tenant, mq.query.graph))
    return out


@pytest.fixture(scope="module")
def door(ppi_graphs):
    with BackgroundFrontDoor(ftv_service()) as running:
        yield running


@pytest.fixture(scope="module")
def client(door):
    host, port = door.address
    return ObsClient(host, port)


class TestEndpoints:
    def test_healthz_and_unknown_route(self, client):
        status, payload, _ = client.request("GET", "/healthz")
        assert (status, payload) == (200, {"ok": True})
        status, payload, _ = client.request("GET", "/nope")
        assert status == 404

    def test_stats_schema(self, client, door):
        payload = client.stats()
        assert set(payload) == {"stats", "registry"}
        stats = payload["stats"]
        assert list(stats)[:4] == [
            "clock_steps", "ticks", "work_steps", "completed",
        ]
        # each value once: the registry part is what stats() is not
        registry = payload["registry"]
        assert list(registry) == sorted(registry)
        assert not {f"service.{key}" for key in stats} & set(registry)
        assert set(registry) | {f"service.{key}" for key in stats} == set(
            door.service.metrics.snapshot()
        )
        assert "service.latency_hist" in registry
        assert "trace.buffer" in registry

    def test_memory_endpoint(self, client, door):
        status, payload, _ = client.request("GET", "/memory")
        assert status == 200
        assert payload == door.service.memory()
        assert payload["total_bytes"] == sum(
            shard["total_bytes"] for shard in payload["shards"]
        ) > 0
        assert "memory" not in client.stats()["stats"]

    def test_trace_endpoint(self, client, ppi_graphs):
        tenant, graph = workload(ppi_graphs)[0]
        status, payload, _ = client.submit(
            "ppi", graph, tenant=tenant, options=FTV_OPTS
        )
        assert status == 200
        ticket_id = payload["ticket_id"]
        status, trace = client.trace(ticket_id)
        assert status == 200
        assert trace["ticket_id"] == ticket_id
        assert trace["done"] is True
        names = [s["name"] for s in trace["spans"]]
        assert names[0] == "ticket"
        assert "leg" in names
        assert all(s["end"] is not None for s in trace["spans"])
        assert trace["tree"]["name"] == "ticket"
        assert trace["tree"]["children"]

    def test_trace_errors(self, client):
        assert client.trace(999_999)[0] == 404
        status, _, _ = client.request("GET", "/trace/xyz")
        assert status == 400

    def test_bad_query_payload(self, client):
        status, _, _ = client.request(
            "POST", "/query", body={"tenant": "t0"}
        )
        assert status == 400

    def test_unknown_dataset_404(self, client, ppi_graphs):
        _, graph = workload(ppi_graphs)[0]
        status, payload, _ = client.submit("nope", graph)
        assert status == 404
        assert "unknown dataset" in payload["error"]

    def test_watch_frames(self, client):
        frames = list(client.watch(frames=2, interval=0.05))
        assert len(frames) == 2
        assert [f["seq"] for f in frames] == [0, 1]
        for frame in frames:
            assert {
                "clock", "completed", "delta_completed",
                "latency_steps", "per_shard_work", "fanout_waste",
                "cache_hit_rate", "replicas_live", "queued", "active",
                "degraded", "retries", "throughput_qps",
                "mutations_applied", "mutations_pending",
                "journal_lag", "collection_epoch",
            } <= set(frame)


class TestSocketEqualsInProcess:
    def test_workload_equivalence(self, ppi_graphs):
        """The same workload, once over the socket and once in-process:
        identical answers, bills, latencies, and deterministic stats."""
        queries = workload(ppi_graphs)
        local = ftv_service()
        options = QueryOptions(rewritings=("Orig", "DND"))
        local_results = []
        for tenant, graph in queries:
            ticket = local.submit("ppi", graph, tenant, options)
            local.run_until_idle()
            r = ticket.result
            local_results.append((
                r.found, r.steps, r.winner_label, ticket.latency,
                sorted(r.matching_ids),
            ))

        with BackgroundFrontDoor(ftv_service()) as door:
            client = ObsClient(*door.address)
            remote_results = []
            for tenant, graph in queries:
                status, payload, _ = client.submit(
                    "ppi", graph, tenant=tenant, options=FTV_OPTS
                )
                assert status == 200
                r = payload["result"]
                remote_results.append((
                    r["found"], r["steps"], r["winner"],
                    payload["latency_steps"],
                    sorted(r["matching_ids"]),
                ))
            remote_stats = client.stats()["stats"]

        assert remote_results == local_results
        local_stats = local.stats()
        for key in DETERMINISTIC_KEYS:
            assert remote_stats[key] == local_stats[key], key

    def test_coalescing_is_off_path_serially(self, ppi_graphs):
        """Serial socket submits never coalesce (each completes before
        the next arrives) — they hit the result cache instead."""
        _, graph = workload(ppi_graphs)[0]
        with BackgroundFrontDoor(ftv_service()) as door:
            client = ObsClient(*door.address)
            first = client.submit("ppi", graph, options=FTV_OPTS)
            second = client.submit("ppi", graph, options=FTV_OPTS)
        assert first[1]["result"]["from_cache"] is False
        assert second[1]["result"]["from_cache"] is True


#: request ``options`` the front door refuses, with the dotted path its
#: 400 names
MALFORMED_OPTIONS = [
    ({"algorithms": ["NOPE"]}, "options.algorithms[0]"),
    ({"rewritings": ["Orig", "XYZ"]}, "options.rewritings[1]"),
    ({"algorithms": "GQL"}, "options.algorithms"),
    ({"decision_only": "false"}, "options.decision_only"),
    ({"max_embeddings": "x"}, "options.max_embeddings"),
    ({"max_embeddings": 0}, "options.max_embeddings"),
    (["Orig"], "options"),
    ({"rewriting": ["ILF"]}, "options.rewriting"),
    ({"decison_only": True}, "options.decison_only"),
    # the served result carries no embeddings, so there is nothing to
    # count or store and no option says which
    ({"max_embeddings": 5, "count_only": False}, "options.count_only"),
]


#: ``POST /query`` body fields the front door refuses, set over a
#: well-formed request, with the dotted path its 400 names
MALFORMED_FIELDS = [
    ({"dataset": ["ppi"]}, "dataset"),
    ({"dataset": 7}, "dataset"),
    ({"tenant": ["x"]}, "tenant"),
    ({"budget_steps": "abc"}, "budget_steps"),
    ({"budget_steps": 0}, "budget_steps"),
    ({"budget_steps": 2.5}, "budget_steps"),
    ({"budget_steps": True}, "budget_steps"),
    ({"query": {"labels": [["a"]], "edges": []}}, "query.labels[0]"),
    ({"query": {"labels": ["x", {"a": 1}], "edges": [[0, 1, None]]}},
     "query.labels[1]"),
]

#: ``Content-Length`` values refused the same way (path
#: ``Content-Length``): only a plain non-negative integer is one
MALFORMED_LENGTHS = ["abc", "-5", "+3", "1_0", "2.0"]


def raw_post(address, content_length):
    """One ``POST /query`` with a hand-written ``Content-Length`` and
    no body; returns (status, parsed JSON)."""
    import json
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(
            f"POST /query HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestOptionsFromRequest:
    """A request's ``options`` is read by ``QueryOptions.from_dict``."""

    @pytest.mark.parametrize("options, path", MALFORMED_OPTIONS)
    def test_a_malformed_field_raises_naming_its_path(self, options, path):
        with pytest.raises(SpecError) as err:
            QueryOptions.from_dict(options)
        assert err.value.path == path

    @pytest.mark.parametrize("options, expected", [
        ({}, QueryOptions()),
        (None, QueryOptions()),
        (
            {"algorithms": ["GQL"], "rewritings": ["Orig", "DND"]},
            QueryOptions(algorithms=("GQL",), rewritings=("Orig", "DND")),
        ),
        (
            {"max_embeddings": 5, "decision_only": True},
            QueryOptions(max_embeddings=5, decision_only=True),
        ),
    ])
    def test_well_typed_fields_become_query_options(self, options, expected):
        """Lists become tuples of whole names and booleans stay
        booleans; an absent or empty mapping means the defaults."""
        assert QueryOptions.from_dict(options) == expected


class TestRejectionMapping:
    def test_degraded_maps_to_429_with_retry_after(self, ppi_graphs):
        svc = ftv_service()
        svc.kill_replica(0, 0)
        svc.kill_replica(0, 1)  # shard 0 blackout
        _, graph = workload(ppi_graphs)[0]
        with BackgroundFrontDoor(svc) as door:
            client = ObsClient(*door.address)
            status, payload, headers = client.submit(
                "ppi", graph, options=FTV_OPTS
            )
        assert status == 429
        assert payload["state"] == "rejected"
        assert payload["degraded"] is True
        assert payload["retry_after_steps"] is not None
        assert int(headers["retry-after"]) >= 1

    def test_plain_rejection_maps_to_400(self, ppi_graphs):
        svc = Service(
            workers=1,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=BUDGET)
            ),
        )
        svc.load_dataset("ppi", scale="tiny")
        _, graph = workload(ppi_graphs)[0]
        with BackgroundFrontDoor(svc) as door:
            client = ObsClient(*door.address)
            # 2-wide race on a 1-worker pool: admission refuses outright
            status, payload, headers = client.submit(
                "ppi", graph, options=FTV_OPTS
            )
        assert status == 400
        assert payload["state"] == "rejected"
        assert payload["retry_after_steps"] is None
        assert "retry-after" not in headers

    def test_an_empty_nfv_query_is_a_400_and_the_pump_keeps_serving(self):
        """An empty query once raised inside the pump loop on an NFV
        dataset, so that request and every later one hung."""
        svc = Service(workers=4)
        svc.load_dataset("yeast", scale="tiny")
        empty = {"labels": [], "edges": []}
        one_vertex = {"labels": ["L0"], "edges": []}
        with BackgroundFrontDoor(svc) as door:
            client = ObsClient(*door.address)
            status, payload, _ = client.request(
                "POST", "/query", body={"dataset": "yeast", "query": empty}
            )
            assert status == 400
            assert payload["reason"] == "query: has no vertex"
            status, payload, _ = client.request(
                "POST", "/query",
                body={"dataset": "yeast", "query": one_vertex},
            )
        assert status == 200
        assert payload["state"] == "done"

    def test_malformed_options_are_a_400_naming_the_field(self, ppi_graphs):
        """Each bad ``options`` field is refused at the door, its dotted
        path named, and the pump keeps serving: the next query, with
        default options, is answered."""
        _, graph = workload(ppi_graphs)[0]
        with BackgroundFrontDoor(ftv_service()) as door:
            client = ObsClient(*door.address)
            for options, path in MALFORMED_OPTIONS:
                status, payload, _ = client.submit(
                    "ppi", graph, options=options
                )
                assert status == 400, options
                assert payload["error"].startswith(f"{path}: ")
            status, payload, _ = client.submit("ppi", graph, options={})
        assert status == 200
        assert payload["state"] == "done"

    def test_malformed_fields_are_a_400_naming_the_field(self, ppi_graphs):
        """A non-string ``dataset`` or ``tenant``, a list or object
        vertex label and a ``budget_steps`` that is not a positive
        integer are refused at the door, never a 500 and never raced;
        the next query is answered."""
        _, graph = workload(ppi_graphs)[0]
        body = {"dataset": "ppi", "query": query_payload(graph)}
        with BackgroundFrontDoor(ftv_service()) as door:
            client = ObsClient(*door.address)
            for fields, path in MALFORMED_FIELDS:
                status, payload, _ = client.request(
                    "POST", "/query", body={**body, **fields}
                )
                assert status == 400, fields
                assert payload["error"].startswith(f"{path}: ")
            for length in MALFORMED_LENGTHS:
                status, payload = raw_post(door.address, length)
                assert status == 400, length
                assert payload["error"].startswith("Content-Length: ")
            status, payload, _ = client.request(
                "POST", "/query", body={**body, "budget_steps": 5_000}
            )
        assert status == 200
        assert payload["state"] == "done"


def test_query_payload_round_trip(ppi_graphs):
    import json

    from repro.graphs.io import graph_from_json

    _, graph = workload(ppi_graphs)[0]
    rebuilt = graph_from_json(json.dumps(query_payload(graph)))
    assert rebuilt.name == graph.name
    assert list(rebuilt.labels) == list(graph.labels)
    assert sorted(rebuilt.edges()) == sorted(graph.edges())


# ----------------------------------------------------------------------
# the reconnect loop's delays
# ----------------------------------------------------------------------

class TestReconnectDelays:
    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
    def test_a_non_finite_retry_after_is_no_retry_after(self, raw):
        from repro.obs.client import _retry_after_seconds

        assert _retry_after_seconds({"retry-after": raw}) is None

    def test_a_finite_retry_after_is_read(self):
        from repro.obs.client import _retry_after_seconds

        assert _retry_after_seconds({"retry-after": "2.5"}) == 2.5
        assert _retry_after_seconds({"retry-after": "-3"}) == 0.0
        assert _retry_after_seconds({"retry-after": "soon"}) is None
        assert _retry_after_seconds({}) is None

    def test_an_endless_schedule_stays_finite_and_capped(self):
        """``attempts=0`` yields forever; the bound stops doubling at
        ``cap`` instead of overflowing a float at attempt 1024."""
        from itertools import islice

        from repro.obs.client import reconnect_delays

        delays = list(islice(reconnect_delays(cap=4.0, seed=3), 1100))
        assert len(delays) == 1100
        assert all(0.0 <= d <= 4.0 for d in delays)

    def test_full_jitter_under_a_doubling_bound(self):
        """Attempt ``i`` draws ``uniform(0, min(cap, base * 2**i))``
        from the seeded generator, draw for draw."""
        import random

        from repro.obs.client import reconnect_delays

        rng = random.Random(11)
        expected = [
            rng.uniform(0.0, min(5.0, 0.25 * 2.0 ** i)) for i in range(8)
        ]
        delays = list(reconnect_delays(8, base=0.25, cap=5.0, seed=11))
        assert delays == expected

    def test_a_finite_schedule_yields_its_attempts(self):
        from repro.obs.client import reconnect_delays

        assert len(list(reconnect_delays(5, seed=0))) == 5
        assert list(reconnect_delays(4, seed=9)) == (
            list(reconnect_delays(4, seed=9))
        )

    @pytest.mark.parametrize("base, cap, fragment", [
        (0.0, 1.0, "base must be > 0"),
        (2.0, 1.0, "cap must be >= base"),
    ])
    def test_a_bad_schedule_is_refused(self, base, cap, fragment):
        from repro.obs.client import reconnect_delays

        with pytest.raises(ValueError, match=fragment):
            next(reconnect_delays(base=base, cap=cap))
