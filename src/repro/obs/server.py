"""Asyncio stats front door over a :class:`~repro.service.Service`.

A minimal HTTP/1.1 protocol server (stdlib ``asyncio`` only — no web
framework) whose event loop *pumps the virtual-clock core*: sockets
and wall-clock timers live exclusively in this layer, while every
query answer, step bill, and latency is produced by the same
deterministic ``submit``/``pump`` machinery the tests and benches
digest-pin.  Serving the same submission sequence over sockets or
in-process therefore yields identical stats — the property
``tests/test_obs_server.py`` and the ``serve --listen`` process drills
in ``tests/test_cli.py`` assert.

Endpoints
---------
``POST /query``
    JSON body ``{"dataset", "query": {labels, edges[, name]},
    ["tenant"], ["options": {algorithms, rewritings, max_embeddings,
    decision_only}], ["budget_steps"]}`` — the ``query``
    object is the :func:`repro.graphs.io.graph_to_json` wire format.
    A malformed field (a non-string ``dataset`` or ``tenant``, a list
    or object vertex label, a ``budget_steps`` that is not a positive
    integer, a non-integer ``Content-Length``) is a ``400`` naming its
    dotted path; ``options`` is read by
    :meth:`QueryOptions.from_dict <repro.service.planner.QueryOptions>`,
    so a bad value or an unknown key (``options.decison_only``) is one
    too.  Blocks until the ticket resolves;
    admission rejections map to ``429`` with a wall-clock
    ``Retry-After`` header derived from the ticket's virtual
    ``retry_after`` via ``steps_per_second``.
``GET /stats``
    ``{"stats": Service.stats(), "registry": …}``: the registry part
    holds only the metrics ``stats()`` does not (the ``service.<key>``
    of each stats key is left out), so each value is sent once.
``GET /memory``
    ``Service.memory()``: the catalog's byte accounting, a heap walk
    after each load or mutation, so it is served only when asked for.
``GET /trace/<ticket_id>``
    The recorded span tree for one ticket (404 once ring-evicted).
``GET /watch?frames=N&interval=S``
    Streaming ``application/x-ndjson``: one delta frame per interval
    (throughput, interval p50/p95, per-shard bills, fanout waste,
    cache hit rate, live replicas).  ``frames=0`` streams forever.
    On graceful shutdown the stream emits one last frame marked
    ``"final": true`` before ending.
``GET /healthz``
    Liveness probe.

Single-threaded by design: all service mutation happens on the event
loop, so no locking is ever needed around the deterministic core.

``asyncio`` (and ``ssl`` with it) is imported by the methods that run
a door, not by this module: the benchmark harness imports it for
:class:`BackgroundFrontDoor` whether or not it opens a socket.
"""

from __future__ import annotations

import json
import math
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl

from ..graphs.io import graph_from_json
from ..metrics import summarize_latencies
from ..service import QueryOptions, Service, TicketState
from ..service.schema import SpecError, check_int, check_optional, check_str

if TYPE_CHECKING:
    import asyncio

__all__ = ["FrontDoor", "BackgroundFrontDoor"]

#: default virtual-step -> wall-clock conversion for Retry-After
DEFAULT_STEPS_PER_SECOND = 1_000_000

#: wall seconds :meth:`FrontDoor.close` waits for in-flight queries and
#: watchers' final frames before tearing the loop down anyway
DRAIN_TIMEOUT_S = 5.0


class FrontDoor:
    """The asyncio protocol server; one instance per :class:`Service`."""

    def __init__(
        self,
        service: Service,
        host: str = "127.0.0.1",
        port: int = 0,
        steps_per_second: int = DEFAULT_STEPS_PER_SECOND,
    ) -> None:
        import asyncio

        if steps_per_second < 1:
            raise ValueError("steps_per_second must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.steps_per_second = steps_per_second
        #: (host, port) actually bound (port 0 resolves at start)
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._work = asyncio.Event()
        #: set by :meth:`close`: watch streams emit one ``final`` frame
        #: and end instead of sleeping into the next interval
        self._draining = asyncio.Event()
        #: live ``/watch`` handler tokens (close waits for them)
        self._watchers: set = set()
        #: ticket.id -> future resolved when the core completes it
        self._waiters: Dict[int, asyncio.Future] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        import asyncio

        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump_loop()
        )
        return self.address

    async def close(self) -> None:
        """Graceful drain, then teardown.

        Order matters: (1) stop accepting new connections, (2) let
        every in-flight ``POST /query`` resolve through the pump, (3)
        let every ``/watch`` stream emit one last frame (marked
        ``"final": true``) and end, (4) only then cancel the pump task
        and close the listening sockets.  Everything after step 1 is
        bounded by :data:`DRAIN_TIMEOUT_S` so a wedged client cannot
        hold shutdown hostage.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT_S
        self._draining.set()
        self._work.set()  # wake the pump so queued work finishes
        if self._server is not None:
            self._server.close()  # stop accepting; handlers keep going
        while self._waiters and loop.time() < deadline:
            await asyncio.sleep(0.01)
        while self._watchers and loop.time() < deadline:
            await asyncio.sleep(0.01)
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(),
                    timeout=max(0.0, deadline - loop.time()) + 0.1,
                )
            except asyncio.TimeoutError:  # pragma: no cover - wedged peer
                pass

    # ------------------------------------------------------------------
    # the pump loop: the only place the virtual clock advances
    # ------------------------------------------------------------------

    async def _pump_loop(self) -> None:
        import asyncio

        while True:
            await self._work.wait()
            self._work.clear()
            while not self.service.idle:
                for ticket in self.service.pump():
                    fut = self._waiters.pop(ticket.id, None)
                    if fut is not None and not fut.done():
                        fut.set_result(ticket)
                # yield between ticks so responses flush and new
                # submissions join the running batch
                await asyncio.sleep(0)

    async def _resolve(self, ticket):
        """Wait (on the event loop) for the core to finish a ticket."""
        import asyncio

        if ticket.done:
            return ticket
        fut = asyncio.get_running_loop().create_future()
        self._waiters[ticket.id] = fut
        self._work.set()
        return await fut

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        import asyncio

        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, params, _headers, body = request
            if method == "GET" and path == "/stats":
                await self._respond(writer, 200, self._stats_payload())
            elif method == "GET" and path == "/memory":
                await self._respond(writer, 200, self.service.memory())
            elif method == "GET" and path.startswith("/trace/"):
                await self._serve_trace(writer, path)
            elif method == "GET" and path == "/watch":
                await self._serve_watch(writer, params)
            elif method == "POST" and path == "/query":
                await self._serve_query(writer, body)
            elif method == "GET" and path == "/healthz":
                await self._respond(writer, 200, {"ok": True})
            else:
                await self._respond(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - server must not die
            # malformed client input is a 400 naming its field; any
            # other failure is the server's
            bad = isinstance(exc, SpecError)
            try:
                await self._respond(
                    writer, 400 if bad else 500,
                    {"error": str(exc) if bad else repr(exc)},
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise SpecError(
                "Content-Length",
                f"expected a non-negative integer, got {raw_length!r}",
            )
        length = int(raw_length)
        body = await reader.readexactly(length) if length else b""
        path, _, query_string = target.partition("?")
        params = dict(parse_qsl(query_string))
        return method, path, params, headers, body

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 400: "Bad Request",
                  429: "Too Many Requests", 500: "Internal Server Error"}
        body = json.dumps(payload, default=str).encode()
        head = [
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for key, value in (extra_headers or {}).items():
            head.append(f"{key}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def _stats_payload(self) -> dict:
        stats = self.service.stats()
        sent = {f"service.{key}" for key in stats}
        return {
            "stats": stats,
            "registry": {
                name: value
                for name, value in self.service.metrics.snapshot().items()
                if name not in sent
            },
        }

    async def _serve_trace(
        self, writer: asyncio.StreamWriter, path: str
    ) -> None:
        raw = path[len("/trace/"):]
        try:
            ticket_id = int(raw)
        except ValueError:
            await self._respond(
                writer, 400, {"error": f"bad ticket id {raw!r}"}
            )
            return
        trace = self.service.trace(ticket_id)
        if trace is None:
            await self._respond(
                writer, 404,
                {"error": f"no trace for ticket {ticket_id}"},
            )
            return
        payload = trace.as_dict()
        payload["tree"] = trace.span_tree()
        await self._respond(writer, 200, payload)

    async def _serve_query(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode())
            dataset = payload["dataset"]
            query = graph_from_json(json.dumps(payload["query"]))
        except (KeyError, ValueError, TypeError) as exc:
            await self._respond(
                writer, 400, {"error": f"bad query payload: {exc!r}"}
            )
            return
        # a malformed field raises SpecError: a 400 naming it (_handle)
        for i, label in enumerate(query.labels):
            if isinstance(label, (list, dict)):  # unhashable: no code
                raise SpecError(
                    f"query.labels[{i}]",
                    f"expected a string or number, got {label!r}",
                )
        dataset = check_str()(dataset, "dataset")
        tenant = check_str()(payload.get("tenant", "public"), "tenant")
        options = QueryOptions.from_dict(payload.get("options"))
        budget = check_optional(check_int(1))(
            payload.get("budget_steps"), "budget_steps"
        )
        try:
            ticket = self.service.submit(
                dataset, query, tenant, options, budget
            )
        except KeyError as exc:
            await self._respond(
                writer, 404, {"error": f"unknown dataset: {exc}"}
            )
            return
        ticket = await self._resolve(ticket)
        await self._respond_ticket(writer, ticket)

    async def _respond_ticket(
        self, writer: asyncio.StreamWriter, ticket
    ) -> None:
        if ticket.state is TicketState.REJECTED:
            headers = {}
            status = 400
            if ticket.retry_after is not None:
                status = 429
                remaining = max(0, ticket.retry_after - self.service.clock)
                headers["Retry-After"] = str(
                    max(1, math.ceil(remaining / self.steps_per_second))
                )
            await self._respond(
                writer,
                status,
                {
                    "ticket_id": ticket.id,
                    "state": "rejected",
                    "reason": ticket.reject_reason,
                    "degraded": ticket.degraded,
                    "retry_after_steps": ticket.retry_after,
                },
                headers,
            )
            return
        result = ticket.result
        await self._respond(
            writer,
            200,
            {
                "ticket_id": ticket.id,
                "state": "done",
                "clock": self.service.clock,
                "latency_steps": ticket.latency,
                "result": {
                    "found": result.found,
                    "killed": result.killed,
                    "steps": result.steps,
                    "winner": result.winner_label,
                    "num_embeddings": result.num_embeddings,
                    "matching_ids": list(result.matching_ids),
                    "from_cache": result.from_cache,
                    "coalesced": result.coalesced,
                },
                "trace": self.service.trace(ticket.id) is not None,
            },
        )

    # ------------------------------------------------------------------
    # /watch streaming
    # ------------------------------------------------------------------

    def watch_frame(self, seq: int, prev_completed: int) -> dict:
        """One delta frame; pure read of the registry (no mutation).

        The interval latency summary uses the *same* nearest-rank
        definition as ``Service.stats()`` (``repro.metrics.core``), over
        exactly the completions of this interval.
        """
        svc = self.service
        completed = svc.completed_count.value
        delta = completed - prev_completed
        recent = list(svc.stats_view.latencies)[-delta:] if delta else []
        latency = (
            summarize_latencies(recent).as_dict() if recent else None
        )
        replicas = svc.metrics.value("service.replicas")
        return {
            "seq": seq,
            "clock": svc.clock,
            "completed": completed,
            "delta_completed": delta,
            "latency_steps": latency,
            "per_shard_work": svc.metrics.value("service.per_shard_work"),
            "fanout_waste": svc.fanout.fanout_waste.value,
            "cache_hit_rate": svc.cache.as_metrics()["hit_rate"],
            "replicas_live": sum(replicas["live"]),
            "replica_states": replicas["states"],
            "queued": svc.admission.queued(),
            "active": svc.dispatcher.active,
            "degraded": svc.fanout.degraded.value,
            "retries": svc.fanout.retries.value,
            # dynamic collections: applied-mutation throughput and the
            # replay-recovery signal (journaled-but-unapplied records)
            "mutations_applied": svc.mutations.applied.value,
            "mutations_pending": len(svc.mutations.pending),
            "journal_lag": svc.mutations.lag(),
            "collection_epoch": svc.catalog.mutation_epoch,
        }

    async def _serve_watch(
        self, writer: asyncio.StreamWriter, params: Dict[str, str]
    ) -> None:
        import asyncio

        try:
            frames = int(params.get("frames", "0"))
            interval = max(0.02, float(params.get("interval", "1.0")))
        except ValueError:
            await self._respond(writer, 400, {"error": "bad watch params"})
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        await writer.drain()
        seq = 0
        prev_completed = self.service.completed_count.value
        token = object()
        self._watchers.add(token)
        try:
            while frames <= 0 or seq < frames:
                # sleep one interval — or less, if a drain begins: the
                # stream then emits one last frame (marked final) and
                # ends cleanly instead of dying mid-interval
                final = self._draining.is_set()
                if not final:
                    try:
                        await asyncio.wait_for(
                            self._draining.wait(), timeout=interval
                        )
                        final = True
                    except asyncio.TimeoutError:
                        pass
                frame = self.watch_frame(seq, prev_completed)
                frame["throughput_qps"] = round(
                    frame["delta_completed"] / interval, 3
                )
                if final:
                    frame["final"] = True
                prev_completed = frame["completed"]
                writer.write(
                    (json.dumps(frame, default=str) + "\n").encode()
                )
                await writer.drain()
                seq += 1
                if final:
                    return
        finally:
            self._watchers.discard(token)


class BackgroundFrontDoor:
    """Run a :class:`FrontDoor` on a daemon thread: ``repro serve
    --listen`` (whose main thread waits for SIGINT/SIGTERM, then calls
    :meth:`stop`), the e2e benches, tests and notebooks.  :meth:`stop`
    drains in-flight queries and watch streams (:meth:`FrontDoor.close`).

    The service is only ever touched from the server's event loop while
    running — callers drive it through sockets, then ``stop()`` before
    inspecting service state in-process.
    """

    def __init__(
        self,
        service: Service,
        host: str = "127.0.0.1",
        port: int = 0,
        steps_per_second: int = DEFAULT_STEPS_PER_SECOND,
    ) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._steps_per_second = steps_per_second
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("front door failed to start in 30s")
        if self._error is not None:
            raise RuntimeError(
                f"front door failed to start: {self._error!r}"
            )
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        import asyncio

        async def _main() -> None:
            door = FrontDoor(
                self.service,
                self._host,
                self._port,
                steps_per_second=self._steps_per_second,
            )
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            # a failed start reaches start() through _error, which is
            # set before _ready
            self.address = await door.start()
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await door.close()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._error = exc
            self._ready.set()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundFrontDoor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
