"""Wall-clock spans recorded by the benchmark around calls into the program.

The program (``src/``) carries no wall-time hooks yet (ROADMAP item 5),
so every span here is opened and closed by benchmark code: one per call
into a layer's public function.  Spans stay in memory during the run
and are written out once, after the last timed window.

A span is ``{id, workload, name, parent, start, end}``.  A span's *self
time* is its duration minus the part of that interval its child spans
cover, so a parent that only waits for its children reports ~0.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

__all__ = ["SpanLog", "timed"]


class SpanLog:
    """Append-only span store for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: rows of [name, parent id or None, start, end]; id = index
        self.rows: list[list] = []

    def add(
        self, name: str, parent: Optional[int], start: float, end: float
    ) -> int:
        """Record a finished span; returns its id."""
        self.rows.append([name, parent, start, end])
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        """Open a span for the ``with`` body; yields its id so calls
        made inside can name it as their parent."""
        row = [name, parent, perf_counter(), None]
        self.rows.append(row)
        try:
            yield len(self.rows) - 1
        finally:
            row[3] = perf_counter()

    # ------------------------------------------------------------------
    # derived numbers
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, by id."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _name, parent, start, end in self.rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for sid, (_name, _parent, start, end) in enumerate(self.rows):
            covered = 0.0
            edge = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, edge)
                if c_end > c_start:
                    covered += c_end - c_start
                    edge = c_end
            out.append((end - start) - covered)
        return out

    def totals(self, under: Optional[str] = None) -> dict[str, dict]:
        """Per-name ``{calls, total_s, self_s}``; ``under`` restricts
        the sum to descendants of the spans carrying that name."""
        selves = self.self_times()
        keep = None
        if under is not None:
            keep = set()
            for sid, (name, parent, _s, _e) in enumerate(self.rows):
                # parents always precede their children in the log
                if name == under or parent in keep:
                    keep.add(sid)
        out: dict[str, dict] = {}
        for sid, (name, _parent, start, end) in enumerate(self.rows):
            if keep is not None and sid not in keep:
                continue
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += selves[sid]
        return out

    def flush(self, path: str) -> float:
        """Write every span as one JSON line; returns seconds spent."""
        start = perf_counter()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, parent, s, e) in enumerate(self.rows):
                fh.write(json.dumps({
                    "id": sid,
                    "workload": self.workload,
                    "name": name,
                    "parent": parent,
                    "start": s,
                    "end": e,
                }) + "\n")
        return perf_counter() - start


def timed(log: Optional[SpanLog], name: str, parent: Optional[int],
          fn, *args, **kwargs):
    """Call ``fn`` once; returns ``(result, seconds)`` and, when a log
    is attached, records the call as a span."""
    start = perf_counter()
    result = fn(*args, **kwargs)
    end = perf_counter()
    if log is not None:
        log.add(name, parent, start, end)
    return result, end - start
