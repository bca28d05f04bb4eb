"""End-to-end query tracing: hierarchical spans over the query path.

The paper's latency claims (Figure 2's sub-second fan-out, Figure 3's
concurrency scaling) are statements about *where time goes* inside a
personalized query.  A single end-to-end number cannot show that routing
pruned half the regions but the heap merge dominated, or that one
straggler region blew up p99.  This module provides the span layer every
other observability feature builds on:

- :class:`Span` — one timed operation (``trace_id``, ``span_id``,
  parent, name, start, duration, free-form tags);
- :class:`Tracer` — thread-safe span factory + collector.  Finished
  traces are assembled into plain-dict span *trees* and kept in a
  bounded ring buffer; traces whose root latency crosses a configurable
  threshold are additionally captured in a slow-query log;
- :data:`NULL_TRACER` — the disabled tracer.  Every producer takes a
  tracer argument defaulting to it, so untraced call sites pay a single
  attribute check and results are byte-identical with tracing on or off
  (spans never touch computation, only observe it).

Context propagation is explicit: the client starts a root span, hands
per-query *parent* spans to the HBase client's fan-out, and each
region's coprocessor invocation opens child spans under them.  Parent
links are plain object references, with no thread-local machinery.
Regions run one after another in the calling thread, so the wall
durations of a fan-out's ``region.scan`` children add up to the
fan-out's own; their overlap exists only in the ``sim_*`` tags.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..errors import ValidationError

__all__ = ["Span", "Tracer", "NULL_TRACER"]


class Span:
    """One timed operation within a trace.

    Spans are context managers: ``with tracer.span("merge", parent=root)
    as s: ...`` finishes the span (and stamps its duration) on exit.
    Tags may be added until the trace's *root* span finishes, which is
    when the tree is assembled and snapshotted.
    """

    __slots__ = (
        "_tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_ms",
        "duration_ms",
        "tags",
        "finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_ms: float,
        tags: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self.tags = tags
        self.finished = False

    def tag(self, key: str, value: Any) -> "Span":
        """Attach one key/value annotation; returns self for chaining."""
        self.tags[key] = value
        return self

    def finish(self) -> None:
        self._tracer.finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.tags.setdefault("error", repr(exc))
        self._tracer.finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%s trace=%s span=%s parent=%s %.3fms)" % (
            self.name,
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.duration_ms,
        )


class _NoopSpan:
    """The span the disabled tracer hands out: accepts every operation,
    records nothing.  A single shared instance keeps the off path free
    of allocation."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = "noop"
    start_ms = 0.0
    duration_ms = 0.0
    finished = True

    @property
    def tags(self) -> Dict[str, Any]:
        return {}

    def tag(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Thread-safe span factory and trace collector.

    Parameters
    ----------
    enabled:
        When False every ``span``/``start_span`` returns the shared
        no-op span and nothing is recorded.
    max_traces:
        Ring-buffer capacity for assembled traces (oldest evicted).
    slow_threshold_ms:
        Root spans whose latency (the ``latency_ms`` tag when present,
        else wall duration) reaches this value are also captured in the
        bounded slow-query log.  ``None`` disables the log.
    slow_log_size:
        Slow-query ring-buffer capacity.
    clock:
        Seconds-returning monotonic clock (injectable for tests);
        defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_traces: int = 128,
        slow_threshold_ms: Optional[float] = None,
        slow_log_size: int = 32,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if max_traces < 1:
            raise ValidationError("max_traces must be >= 1")
        if slow_log_size < 1:
            raise ValidationError("slow_log_size must be >= 1")
        if slow_threshold_ms is not None and slow_threshold_ms < 0:
            raise ValidationError("slow_threshold_ms cannot be negative")
        self.enabled = enabled
        self.slow_threshold_ms = slow_threshold_ms
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: trace_id -> finished spans awaiting their root.
        self._pending: Dict[int, List[Span]] = {}
        self._recent: deque = deque(maxlen=max_traces)
        self._slow: deque = deque(maxlen=slow_log_size)
        #: Traces evicted before their root finished (leak guard).
        self.dropped_traces = 0

    @classmethod
    def from_config(cls, config) -> "Tracer":
        """Build from a :class:`repro.config.TracingConfig`."""
        return cls(
            enabled=config.enabled,
            max_traces=config.max_traces,
            slow_threshold_ms=config.slow_query_threshold_ms,
            slow_log_size=config.slow_log_size,
        )

    # ------------------------------------------------------------ producing

    def _now_ms(self) -> float:
        return (self._clock() - self._epoch) * 1e3

    def span(self, name: str, parent: Any = None, **tags: Any):
        """Open a span.  With no ``parent`` this starts a new trace.

        Usable as a context manager (finishes on exit) or imperatively
        via :meth:`Span.finish`.
        """
        if not self.enabled:
            return NOOP_SPAN
        with self._lock:
            span_id = next(self._ids)
        if parent is None or parent is NOOP_SPAN:
            trace_id: int = span_id
            parent_id: Optional[int] = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(self, trace_id, span_id, parent_id, name, self._now_ms(), tags)

    start_span = span

    def finish(self, span: Any) -> None:
        """Stamp ``span``'s duration and collect it; finishing a trace's
        root span assembles and publishes the whole tree."""
        if span is NOOP_SPAN or span.finished:
            return
        span.finished = True
        span.duration_ms = self._now_ms() - span.start_ms
        with self._lock:
            self._pending.setdefault(span.trace_id, []).append(span)
            if span.parent_id is not None:
                self._evict_orphans_locked()
                return
            spans = self._pending.pop(span.trace_id)
            tree = _assemble_tree(spans)
            self._recent.append(tree)
            threshold = self.slow_threshold_ms
            if threshold is not None:
                latency = span.tags.get("latency_ms", span.duration_ms)
                try:
                    is_slow = float(latency) >= threshold
                except (TypeError, ValueError):
                    is_slow = False
                if is_slow:
                    self._slow.append(tree)

    def _evict_orphans_locked(self) -> None:
        """Bound ``_pending`` against traces whose root never finishes
        (a crashed caller): drop the oldest once over 4x the ring size."""
        limit = 4 * (self._recent.maxlen or 1)
        while len(self._pending) > limit:
            oldest = next(iter(self._pending))
            del self._pending[oldest]
            self.dropped_traces += 1

    # ------------------------------------------------------------ consuming

    def recent_traces(self, limit: Optional[int] = None) -> List[Dict]:
        """Assembled traces, newest first."""
        with self._lock:
            traces = list(self._recent)
        traces.reverse()
        if limit is not None:
            traces = traces[: max(0, limit)]
        return traces

    def slow_queries(self, limit: Optional[int] = None) -> List[Dict]:
        """Slow-query log (traces over the threshold), newest first."""
        with self._lock:
            traces = list(self._slow)
        traces.reverse()
        if limit is not None:
            traces = traces[: max(0, limit)]
        return traces

    def last_trace(self) -> Optional[Dict]:
        with self._lock:
            return self._recent[-1] if self._recent else None

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slow.clear()
            self._pending.clear()

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "recent_traces": len(self._recent),
                "slow_traces": len(self._slow),
                "pending_traces": len(self._pending),
                "dropped_traces": self.dropped_traces,
                "slow_threshold_ms": self.slow_threshold_ms,
                "max_traces": self._recent.maxlen,
                "slow_log_size": self._slow.maxlen,
            }


def _assemble_tree(spans: List[Span]) -> Dict[str, Any]:
    """Plain-dict span tree from a trace's finished spans.

    The root is the span with no parent; spans whose parent is missing
    (finished after an eviction, say) attach under the root so nothing
    is silently lost.  Children are ordered by start time.
    """
    nodes: Dict[int, Dict[str, Any]] = {}
    for span in spans:
        nodes[span.span_id] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start_ms": span.start_ms,
            "duration_ms": span.duration_ms,
            "tags": dict(span.tags),
            "children": [],
        }
    root = None
    for span in spans:
        if span.parent_id is None:
            root = nodes[span.span_id]
            break
    orphans: List[Dict[str, Any]] = []
    for span in spans:
        node = nodes[span.span_id]
        if span.parent_id is None:
            continue
        parent = nodes.get(span.parent_id)
        if parent is not None:
            parent["children"].append(node)
        else:
            orphans.append(node)
    if root is None:  # defensive: publish *something* coherent
        root = {
            "span_id": None,
            "parent_id": None,
            "name": "(lost-root)",
            "start_ms": min(s.start_ms for s in spans),
            "duration_ms": 0.0,
            "tags": {},
            "children": [],
        }
    root["children"].extend(orphans)
    _sort_children(root)
    return {
        "trace_id": spans[0].trace_id if spans else None,
        "root": root,
        "duration_ms": root["duration_ms"],
        "span_count": len(spans),
        "stages": sorted({span.name for span in spans}),
        # Surfaced at the top level so trace consumers can filter
        # partial-result queries without walking the tree.
        "degraded": bool(root["tags"].get("degraded", False)),
    }


def _sort_children(node: Dict[str, Any]) -> None:
    node["children"].sort(key=lambda child: (child["start_ms"], child["span_id"] or 0))
    for child in node["children"]:
        _sort_children(child)


#: The shared disabled tracer: every producer defaults to it, so call
#: sites never need ``if tracer is not None`` checks.
NULL_TRACER = Tracer(enabled=False)
