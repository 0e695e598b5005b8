"""Per-ticket trace spans on the virtual clock.

Every ticket the service admits gets a :class:`TicketTrace`: a root
span (``"ticket"``) plus child spans and point events recording the
request's life — queueing, the route plan, each fan-out leg with its
replica placement, fault hits, retries, merge, and the cache path.  Timestamps are *virtual-clock steps*, so
a trace is as deterministic as the run that produced it: two runs of
the same submission history yield identical traces.

Traces live in a bounded ring buffer (:class:`Tracer`): when a new
ticket would exceed ``capacity``, the oldest trace is evicted and
later span operations for that ticket become no-ops.  Tracing is
strictly write-only bookkeeping — it never raises into the serving
path and never feeds back into scheduling.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

__all__ = ["Span", "TicketTrace", "Tracer"]


@dataclass
class Span:
    """One timed interval (or point event, when ``end == start``)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: int
    end: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


class TicketTrace:
    """The span tree for one ticket, rooted at span 0 (``"ticket"``)."""

    __slots__ = ("ticket_id", "spans", "_open", "_next_id")

    ROOT = 0

    def __init__(self, ticket_id: int, clock: int, **attrs: Any) -> None:
        self.ticket_id = ticket_id
        self.spans: List[Span] = [Span(0, None, "ticket", clock, attrs=dict(attrs))]
        self._open = {0}
        self._next_id = 1

    # -- span lifecycle ----------------------------------------------
    def begin(self, name: str, clock: int, parent: int = ROOT, **attrs: Any) -> int:
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(Span(span_id, parent, name, clock, attrs=dict(attrs)))
        self._open.add(span_id)
        return span_id

    def end(self, span_id: Optional[int], clock: int, **attrs: Any) -> None:
        if span_id is None or span_id not in self._open:
            return
        span = self.spans[span_id]
        span.end = clock
        if attrs:
            span.attrs.update(attrs)
        self._open.discard(span_id)

    def event(self, name: str, clock: int, parent: int = ROOT, **attrs: Any) -> int:
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(Span(span_id, parent, name, clock, end=clock, attrs=dict(attrs)))
        return span_id

    def finish(self, clock: int, **attrs: Any) -> None:
        """Close the root (and, defensively, any span the instrumentation
        forgot — marked ``auto_closed`` so the completeness tests catch
        the gap without the runtime ever holding an open trace)."""
        for span_id in sorted(self._open):
            if span_id == self.ROOT:
                continue
            self.end(span_id, clock, auto_closed=True)
        root = self.spans[self.ROOT]
        root.end = clock
        if attrs:
            root.attrs.update(attrs)
        self._open.discard(self.ROOT)

    # -- views --------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self._open

    @property
    def root(self) -> Span:
        return self.spans[self.ROOT]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def span_tree(self) -> Dict[str, Any]:
        """Nested dict view (children grouped under their parent)."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans[1:]:
            children.setdefault(span.parent_id if span.parent_id is not None else 0, []).append(span)

        def render(span: Span) -> Dict[str, Any]:
            node = span.as_dict()
            kids = children.get(span.span_id, [])
            if kids:
                node["children"] = [render(k) for k in kids]
            return node

        return render(self.spans[self.ROOT])

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ticket_id": self.ticket_id,
            "done": self.done,
            "spans": [s.as_dict() for s in self.spans],
        }


class Tracer:
    """Bounded ring buffer of ticket traces, keyed by ticket id.

    All mutators are forgiving: operations on evicted or never-started
    tickets are silent no-ops, so tracing can never break serving.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._traces: "OrderedDict[int, TicketTrace]" = OrderedDict()

    # -- lifecycle ----------------------------------------------------
    def start(self, ticket_id: int, clock: int, **attrs: Any) -> TicketTrace:
        trace = TicketTrace(ticket_id, clock, **attrs)
        self._traces[ticket_id] = trace
        self._traces.move_to_end(ticket_id)
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)
            self.dropped += 1
        return trace

    def get(self, ticket_id: int) -> Optional[TicketTrace]:
        return self._traces.get(ticket_id)

    def begin(
        self, ticket_id: int, name: str, clock: int, parent: int = TicketTrace.ROOT, **attrs: Any
    ) -> Optional[int]:
        trace = self._traces.get(ticket_id)
        if trace is None:
            return None
        return trace.begin(name, clock, parent, **attrs)

    def end(self, ticket_id: int, span_id: Optional[int], clock: int, **attrs: Any) -> None:
        trace = self._traces.get(ticket_id)
        if trace is not None:
            trace.end(span_id, clock, **attrs)

    def event(
        self, ticket_id: int, name: str, clock: int, parent: int = TicketTrace.ROOT, **attrs: Any
    ) -> Optional[int]:
        trace = self._traces.get(ticket_id)
        if trace is None:
            return None
        return trace.event(name, clock, parent, **attrs)

    def finish(self, ticket_id: int, clock: int, **attrs: Any) -> None:
        trace = self._traces.get(ticket_id)
        if trace is not None:
            trace.finish(clock, **attrs)

    # -- export -------------------------------------------------------
    def traces(self) -> List[TicketTrace]:
        return list(self._traces.values())

    def export_jsonl(self, dest: Union[str, IO[str]]) -> int:
        """Write one JSON object per ticket trace; returns the count."""
        traces = self.traces()
        if isinstance(dest, str):
            with open(dest, "w", encoding="utf-8") as fh:
                for trace in traces:
                    fh.write(json.dumps(trace.as_dict(), sort_keys=True) + "\n")
        else:
            for trace in traces:
                dest.write(json.dumps(trace.as_dict(), sort_keys=True) + "\n")
        return len(traces)

    def as_metrics(self) -> Dict[str, int]:
        return {
            "tickets": len(self._traces),
            "dropped": self.dropped,
            "capacity": self.capacity,
        }
