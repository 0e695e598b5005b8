"""Blocking HTTP client for the observability front door.

Stdlib-only (``http.client``) helpers used by the ``repro tail`` CLI,
the server tests, and the ``serve --listen`` process drills in
``tests/test_cli.py``.  Deliberately synchronous: callers that drive
deterministic comparisons submit one query at a time and want the
response before the next submit.

Every read is bounded: one-shot requests and ``/watch`` frames both
carry a read timeout, so a dead socket (server killed mid-stream, a
half-open connection) surfaces as :class:`WatchDisconnected` instead
of blocking forever.  :func:`reconnect_delays` provides the bounded
exponential backoff (with full jitter) the ``repro tail`` reconnect
loop sleeps on; an explicit, finite ``Retry-After`` from a 429
overrides the computed delay (the loop still caps it at
``--backoff-cap``).
"""

from __future__ import annotations

import json
import math
import random
from typing import Any, Dict, Iterator, Optional, Tuple

from ..graphs import LabeledGraph

__all__ = [
    "ObsClient",
    "WatchDisconnected",
    "query_payload",
    "reconnect_delays",
]


def query_payload(graph: LabeledGraph) -> Dict[str, Any]:
    """The ``POST /query`` wire rendering of one query graph
    (:func:`repro.graphs.io.graph_to_json`'s payload shape)."""
    return {
        "name": graph.name,
        "labels": list(graph.labels),
        "edges": [
            [u, v, graph.edge_label(u, v)] for u, v in graph.edges()
        ],
    }


class WatchDisconnected(ConnectionError):
    """A ``/watch`` stream (or connect) ended abnormally.

    Carries what the reconnect loop needs to decide its next move:
    ``status`` (the HTTP status when the server answered with an
    error, else None) and ``retry_after`` (seconds parsed from a
    ``Retry-After`` header, else None — when present it overrides the
    backoff delay).
    """

    def __init__(
        self,
        reason: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.status = status
        self.retry_after = retry_after


def reconnect_delays(
    attempts: int = 0,
    base: float = 0.5,
    cap: float = 30.0,
    seed: Optional[int] = None,
) -> Iterator[float]:
    """Bounded exponential backoff delays with full jitter.

    Yields ``uniform(0, min(cap, base * 2**i))`` for attempt ``i`` —
    the classic full-jitter schedule that spreads reconnect storms
    while never sleeping longer than ``cap``.  The bound stops doubling
    once it reaches ``cap``, so ``attempts=0`` yields forever; pass
    ``seed`` for a deterministic schedule (tests).
    """
    if base <= 0:
        raise ValueError("base must be > 0")
    if cap < base:
        raise ValueError("cap must be >= base")
    rng = random.Random(seed)
    bound = base
    i = 0
    while attempts <= 0 or i < attempts:
        yield rng.uniform(0.0, min(cap, bound))
        if bound < cap:
            bound *= 2.0
        i += 1


def _retry_after_seconds(headers: Dict[str, str]) -> Optional[float]:
    """Seconds a ``Retry-After`` header asks for; None when it is
    absent, unparsable or not finite (``inf``, ``nan``, ``1e400``)."""
    raw = headers.get("retry-after")
    if raw is None:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


class ObsClient:
    """One front-door endpoint, many one-shot requests.

    ``timeout`` bounds connects; ``read_timeout`` (default: same as
    ``timeout``) bounds every subsequent socket read, so no call on
    this client can block forever on a dead peer.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        read_timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.read_timeout = (
            read_timeout if read_timeout is not None else timeout
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _connection(self):
        """A new connection to the door.  ``http.client`` (and ``ssl``
        and ``email`` with it) loads on the first send, not with this
        module, which the benchmark harness imports whether or not it
        sends."""
        import http.client

        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """One request; returns (status, parsed JSON, lowercase headers)."""
        conn = self._connection()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            if conn.sock is not None:
                conn.sock.settimeout(self.read_timeout)
            response = conn.getresponse()
            raw = response.read()
            parsed = json.loads(raw) if raw else None
            return (
                response.status,
                parsed,
                {k.lower(): v for k, v in response.getheaders()},
            )
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        status, payload, _ = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats returned {status}: {payload}")
        return payload

    def trace(self, ticket_id: int) -> Tuple[int, Optional[dict]]:
        status, payload, _ = self.request("GET", f"/trace/{ticket_id}")
        return status, payload

    def submit(
        self,
        dataset: str,
        graph: LabeledGraph,
        tenant: str = "public",
        options: Optional[dict] = None,
        budget_steps: Optional[int] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Submit one query and block until its response."""
        body: Dict[str, Any] = {
            "dataset": dataset,
            "tenant": tenant,
            "query": query_payload(graph),
        }
        if options:
            body["options"] = options
        if budget_steps is not None:
            body["budget_steps"] = budget_steps
        return self.request("POST", "/query", body)

    def watch(
        self,
        frames: int = 0,
        interval: float = 1.0,
        read_timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Consume ``/watch``, yielding one frame dict per interval.

        Each frame read is bounded by ``read_timeout`` (default: ten
        intervals — generous enough for scheduling slop, finite enough
        that a dead server surfaces).  Abnormal ends — connect
        failure, an error status (whose ``Retry-After`` is forwarded),
        a timed-out or torn read — raise :class:`WatchDisconnected`;
        a server-side clean end of stream just stops the iterator.
        """
        per_read = (
            read_timeout if read_timeout is not None
            else max(self.read_timeout, interval * 10)
        )
        conn = self._connection()
        try:
            try:
                conn.request(
                    "GET", f"/watch?frames={frames}&interval={interval}"
                )
                if conn.sock is not None:
                    conn.sock.settimeout(per_read)
                response = conn.getresponse()
            except (TimeoutError, ConnectionError, OSError) as exc:
                raise WatchDisconnected(
                    f"cannot reach {self.host}:{self.port} ({exc})"
                ) from exc
            if response.status != 200:
                headers = {
                    k.lower(): v for k, v in response.getheaders()
                }
                raise WatchDisconnected(
                    f"/watch returned {response.status}",
                    status=response.status,
                    retry_after=_retry_after_seconds(headers),
                )
            while True:
                try:
                    line = response.readline()
                except (TimeoutError, ConnectionError, OSError) as exc:
                    raise WatchDisconnected(
                        f"stream read failed ({exc})"
                    ) from exc
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()
