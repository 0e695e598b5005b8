"""Unified metrics registry for the serving stack.

Design
------
Metric primitives (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
are standalone publishers: a component constructs and mutates its own
metric objects and keeps working even when no registry is attached.
:class:`MetricsRegistry` is the *namespace* over them — components
register their metrics under canonical dotted names and
``snapshot()`` renders every metric in sorted-name order, so two runs
of the same deterministic workload produce byte-identical snapshots.

Two rules keep the registry digest-stable:

* every value is read on demand (``read()``) — nothing is sampled on
  wall-clock timers;
* histograms use *fixed* bucket bounds chosen at construction time
  (power-of-two step bounds by default), never adaptive resizing.

There is one object per counter: a component's attribute *is* the
registered :class:`Counter` (``service.retries.inc()``), and readers
say ``service.retries.value`` or ``registry.value("service.retries")``.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Fixed power-of-two virtual-step bounds (1 .. 2**21).  Values above
#: the last bound land in a final overflow bucket.  The bounds are part
#: of the snapshot so exporters can reconstruct the distribution.
DEFAULT_LATENCY_BUCKETS: Tuple[int, ...] = tuple(1 << k for k in range(22))


class Counter:
    """An integer cell: ``inc()`` to count, ``value`` (or ``read()``,
    the registry's protocol) to look."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, n: int = 1) -> int:
        self.value += n
        return self.value

    def read(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A read-through metric: ``read()`` calls the supplied function.

    Used for values the components already maintain (queue depths,
    replica states, cache hit rates) — the gauge is a *view*, so it can
    never drift from the component's own bookkeeping.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn

    def read(self) -> Any:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.fn!r})"


class Histogram:
    """Fixed-bound histogram over virtual-clock step values.

    ``counts[i]`` counts observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]`` (first bucket: ``v <= bounds[0]``);
    the trailing bucket counts overflow above the last bound.  Bounds
    are immutable after construction so snapshots are digest-stable.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds: Tuple[int, ...] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value: int, n: int = 1) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        self.counts[idx] += n
        self.count += n
        self.total += value * n

    def read(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self.total})"


class MetricsRegistry:
    """Namespace of named metrics with a deterministic snapshot.

    Names are dotted paths (``"service.fanout_waste"``,
    ``"admission.rejected"``).  Registration is collision-checked;
    components that are legitimately re-created against the same
    service (e.g. a fresh ``Rebalancer``) pass ``replace=True``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # -- registration -------------------------------------------------
    def register(self, name: str, metric: Any, *, replace: bool = False) -> Any:
        if not replace and name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        if not hasattr(metric, "read"):
            raise TypeError(f"metric {name!r} has no read(): {metric!r}")
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, value: int = 0, *, replace: bool = False) -> Counter:
        return self.register(name, Counter(value), replace=replace)

    def gauge(self, name: str, fn: Callable[[], Any], *, replace: bool = False) -> Gauge:
        return self.register(name, Gauge(fn), replace=replace)

    def histogram(
        self,
        name: str,
        bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS,
        *,
        replace: bool = False,
    ) -> Histogram:
        return self.register(name, Histogram(bounds), replace=replace)

    # -- reads --------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> Any:
        return self._metrics[name].read()

    def snapshot(self) -> Dict[str, Any]:
        """All metrics, read now, in sorted-name order."""
        return {name: self._metrics[name].read() for name in sorted(self._metrics)}
