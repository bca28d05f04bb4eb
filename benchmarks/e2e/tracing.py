"""Span recording around the program's public callables, from outside.

``Tracer.install()`` replaces each trace point's callable (a fixed list
in ``metrics.TRACE_POINTS``) with a wrapper that records a span — name,
wall start/end, thread CPU seconds, parent span, request id — into
memory; ``uninstall()`` restores the originals.  Nothing in the program
is edited or switched.

Parenthood follows the call stack of each thread.  A span opened on a
worker thread with an empty stack (``coproc.run`` on the fan-out pool)
adopts as parent the ``hbase.fanout`` span that dispatched its request
object.  A trace point that returns a generator (``Region.scan``) is
timed inside ``next``: its span carries the CPU seconds spent producing
items, not the time its consumer held it open.

``account()`` turns spans into per-trace-point totals:

- ``self_s``: wall duration minus the union of the child spans'
  intervals (generator children count with their busy seconds) — busy
  *and* waiting time of the layer itself.  On a thread that shares the
  GIL with 31 siblings most of it is waiting.
- ``cpu_s``: thread CPU seconds minus those of same-thread children —
  busy time only.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    name: str
    parent: int      # 0 = root
    request: int     # 0 = not part of a client request
    thread: int
    start: float     # perf_counter seconds
    end: float
    cpu: float       # thread CPU seconds inside the span
    #: Generator spans only: seconds inside ``next`` (else None).
    busy: Optional[float] = None
    #: True on a generator span that ran untimed: ``resolve()`` gave it
    #: the mean busy time of its timed namesakes.
    estimated: bool = False


#: Generator trace points time one call in this many.
GEN_SAMPLE = 4


class Tracer:
    """Records spans for every installed trace point."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        #: id(request object) -> (fan-out span id, request id), alive
        #: only while that fan-out call is on the stack.
        self._handoff: Dict[int, Tuple[int, int]] = {}
        self._originals: List[Tuple[object, str, Callable]] = []
    # ------------------------------------------------------- installing

    def install(self, trace_points: Dict[str, list]) -> None:
        # Positions as the program calls them today:
        # coprocessor_exec_routed(self, table, coprocessor, routed_requests, ..)
        # VisitScanCoprocessor.run(self, context, request)
        linked = {
            "hbase.fanout": {"handoff_arg": 3},
            "coproc.run": {"adopt_arg": 2},
        }
        for name, targets in trace_points.items():
            found = False
            for module_name, class_name, attr in targets:
                try:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                if name == "region.scan":
                    wrapped = self._wrap_generator(name, original)
                else:
                    wrapped = self._wrap_call(
                        name, original, **linked.get(name, {})
                    )
                setattr(owner, attr, wrapped)
                self._originals.append((owner, attr, original))
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # --------------------------------------------------------- wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, adopt_from: object = None) -> Tuple[int, int, int, list]:
        """``(sid, parent, request, stack)`` for a span opening now."""
        stack = self._stack()
        if stack:
            parent, request = stack[-1]
        elif adopt_from is not None and id(adopt_from) in self._handoff:
            parent, request = self._handoff[id(adopt_from)]
        else:
            parent, request = 0, next(self._requests)
        return next(self._ids), parent, request, stack

    def _wrap_call(
        self, name: str, fn: Callable, adopt_arg: Optional[int] = None,
        handoff_arg: Optional[int] = None,
    ) -> Callable:
        perf, cpu = time.perf_counter, time.thread_time
        spans, ident = self.spans, threading.get_ident
        handoff = self._handoff

        def traced(*args, **kwargs):
            # A call shape install() does not know falls back to a
            # parentless span.
            sid, parent, request, stack = self._open(
                args[adopt_arg]
                if adopt_arg is not None and len(args) > adopt_arg else None
            )
            handed: List[int] = []
            if handoff_arg is not None and len(args) > handoff_arg:
                for mapping in args[handoff_arg]:
                    for region_request in mapping.values():
                        handoff[id(region_request)] = (sid, request)
                        handed.append(id(region_request))
            stack.append((sid, request))
            cpu0 = cpu()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                used = cpu() - cpu0
                stack.pop()
                for key in handed:
                    del handoff[key]
                spans.append(
                    Span(sid, name, parent, request, ident(), start, end, used)
                )

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time a generator inside ``next``.  A scan yields 100k cells
        per request, and a Python frame plus two clock reads per cell
        would cost a third of the request; so one call in
        ``GEN_SAMPLE`` gets the timing wrapper and the others run bare,
        leaving a span whose busy time ``resolve()`` fills in with the
        mean of the timed ones."""
        perf, cpu = time.perf_counter, time.thread_time
        spans, ident = self.spans, threading.get_ident
        calls = itertools.count()

        def timed(iterator):
            sid, parent, request, _stack = self._open()
            start = perf()
            busy = 0.0
            try:
                while True:
                    cpu0 = cpu()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += cpu() - cpu0
                        return
                    busy += cpu() - cpu0
                    yield item
            finally:
                spans.append(Span(
                    sid, name, parent, request, ident(), start, perf(),
                    busy, busy,
                ))

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if next(calls) % GEN_SAMPLE:
                sid, parent, request, _stack = self._open()
                now = perf()
                spans.append(Span(
                    sid, name, parent, request, ident(), now, now,
                    0.0, 0.0, estimated=True,
                ))
                return iterator
            return timed(iterator)

        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------------- output

    def finish(self) -> List[Span]:
        """Restore the originals; returns the resolved spans."""
        self.uninstall()
        self.spans = resolve(self.spans)
        return self.spans

    def dump(self, path: str) -> None:
        """All spans as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------- accounting


def resolve(spans: List[Span]) -> List[Span]:
    """Give every untimed generator span the mean busy time of the
    timed spans of the same trace point."""
    timed: Dict[str, List[float]] = {}
    for span in spans:
        if span.busy is not None and not span.estimated:
            timed.setdefault(span.name, []).append(span.busy)
    means = {name: sum(busy) / len(busy) for name, busy in timed.items()}
    return [
        span._replace(
            busy=means.get(span.name, 0.0), cpu=means.get(span.name, 0.0)
        ) if span.estimated else span
        for span in spans
    ]


def _children(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    return by_parent


def _union_s(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(span: Span, kids: List[Span]) -> Tuple[float, float]:
    """``(self wall seconds, self CPU seconds)`` of ``span``."""
    if span.busy is not None:
        return span.busy, span.busy
    covered = _union_s([
        (max(k.start, span.start), min(k.end, span.end))
        for k in kids if k.busy is None
    ]) + sum(k.busy for k in kids if k.busy is not None)
    wall = max(0.0, (span.end - span.start) - covered)
    cpu = max(0.0, span.cpu - sum(
        k.cpu for k in kids if k.thread == span.thread
    ))
    return wall, cpu


def account(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per trace point: total ``self_s``, ``cpu_s`` and ``calls``."""
    by_parent = _children(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        wall, cpu = self_times(span, by_parent.get(span.sid, []))
        row = totals.setdefault(
            span.name, {"self_s": 0.0, "cpu_s": 0.0, "calls": 0}
        )
        row["self_s"] += wall
        row["cpu_s"] += cpu
        row["calls"] += 1
    return totals


def blocking_path(root: Span, spans: List[Span]) -> List[Tuple[str, float]]:
    """``(name, seconds)`` along the steps that block ``root``'s result.

    Walking back from a span's end, the child that finished last blocked
    it; before that child started, the child that finished last before
    *then*; and so on.  Children that overlap a chosen one (sibling
    workers of a fan-out) were not what the parent waited for and are
    left out.  The parent keeps whatever the chosen children do not
    cover, so the path's seconds add up to ``root``'s duration whenever
    every child lies inside its parent.
    """
    by_parent = _children(spans)
    path: List[Tuple[str, float]] = []

    def walk(span: Span) -> None:
        kids = by_parent.get(span.sid, [])
        own = span.end - span.start
        cursor = span.end
        for kid in sorted(
            (k for k in kids if k.busy is None),
            key=lambda k: k.end, reverse=True,
        ):
            if kid.end <= cursor:
                own -= kid.end - kid.start
                cursor = kid.start
                walk(kid)
        for kid in kids:
            if kid.busy is not None:
                own -= kid.busy
                path.append((kid.name, kid.busy))
        path.append((span.name, max(0.0, own)))

    walk(root)
    return path
