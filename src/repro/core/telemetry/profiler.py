"""Continuous wall-clock sampling profiler.

A daemon thread wakes every ``interval_s`` and snapshots
``sys._current_frames()`` — every live thread's current Python frame —
then walks each stack into a folded ``component;outer;...;inner`` key
and bumps its sample count.  Components come from the
:mod:`repro.threadreg` registry (the scheduler, REST handler and ingest
appliers register around their work; region scans and map/reduce tasks
run in their caller's thread and count as ``rest`` or ``scheduler``),
so the ``admin_profile`` endpoint
can answer *where does wall-clock go, per platform component* across the
mixed read/ingest workload.

Samplers observe; they never touch platform state, so query answers are
byte-identical with the profiler on or off.  Cost per sample is one
frame-map snapshot plus a bounded stack walk per thread — at the default
50 Hz this stays well inside the CI-gated 10% overhead budget.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from ... import threadreg
from ...errors import ValidationError

UNKNOWN = "unknown"


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # "pkg/module.py" -> "module"; keeps folded lines compact.
    slash = filename.rfind("/")
    if slash < 0:
        slash = filename.rfind("\\")
    stem = filename[slash + 1:]
    if stem.endswith(".py"):
        stem = stem[:-3]
    return "%s.%s" % (stem, code.co_name)


class ContinuousProfiler:
    """Always-on sampling profiler with folded-stack output."""

    def __init__(
        self,
        interval_s: float = 0.02,
        max_depth: int = 48,
        metrics: Optional[Any] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValidationError("interval_s must be positive")
        if max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        self.interval_s = interval_s
        self.max_depth = max_depth
        self.metrics = metrics
        self._lock = threading.Lock()
        #: code object -> rendered label.  Code objects are long-lived
        #: (one per function definition), so this converts the per-frame
        #: string formatting into a dict hit on every sample after the
        #: first — the difference between ~12% and <10% overhead at
        #: full bench scale.
        self._labels: Dict[Any, str] = {}
        #: (component, stack tuple) -> samples.
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._by_component: Dict[str, int] = {}
        self.samples = 0
        self._threads_seen: set = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "ContinuousProfiler":
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="telemetry-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout_s: float = 2.0) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout_s)
        self._thread = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _run(self) -> None:
        threadreg.register_current_thread("profiler")
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.sample_once(skip_ident=own_ident)

    # ------------------------------------------------------------ sampling

    def sample_once(self, skip_ident: Optional[int] = None) -> int:
        """Take one sample of every live thread; returns threads seen.

        Public so tests can drive deterministic sample counts without
        the background thread.
        """
        components = threadreg.snapshot()
        try:
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - interpreter teardown
            return 0
        sampled = 0
        with self._lock:
            labels = self._labels
            for ident, frame in frames.items():
                if ident == skip_ident:
                    continue
                component = components.get(ident, UNKNOWN)
                if component == "profiler":
                    continue
                stack: List[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    code = frame.f_code
                    label = labels.get(code)
                    if label is None:
                        label = labels[code] = _frame_label(frame)
                    stack.append(label)
                    frame = frame.f_back
                    depth += 1
                stack.reverse()
                key = (component, tuple(stack))
                self._counts[key] = self._counts.get(key, 0) + 1
                self._by_component[component] = (
                    self._by_component.get(component, 0) + 1
                )
                self.samples += 1
                self._threads_seen.add(ident)
                sampled += 1
        # The snapshot holds this thread's own frame, whose local
        # ``frames`` is the snapshot: a cycle that would keep every
        # sampled thread's frame — and all its locals — alive until the
        # cyclic collector ran.  Drop the references, so the sampled
        # work is freed the moment it finishes.
        frames.clear()
        frame = None
        return sampled

    # ------------------------------------------------------------- reading

    def folded(
        self,
        limit: Optional[int] = None,
        component: Optional[str] = None,
    ) -> List[str]:
        """Folded-stack lines (``component;outer;...;inner count``),
        heaviest first — paste straight into any flamegraph renderer."""
        with self._lock:
            items = [
                (count, comp, stack)
                for (comp, stack), count in self._counts.items()
                if component is None or comp == component
            ]
        items.sort(key=lambda item: (-item[0], item[1], item[2]))
        if limit is not None and limit >= 0:
            items = items[:limit]
        return [
            "%s;%s %d" % (comp, ";".join(stack), count)
            for count, comp, stack in items
        ]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.samples
            by_component = dict(self._by_component)
            threads = len(self._threads_seen)
            stacks = len(self._counts)
        unknown = by_component.get(UNKNOWN, 0)
        attributed = (
            (total - unknown) / total if total else 1.0
        )
        return {
            "running": self.running,
            "interval_s": self.interval_s,
            "samples": total,
            "threads_seen": threads,
            "distinct_stacks": stacks,
            "by_component": by_component,
            "attributed_fraction": attributed,
        }

    def reset(self) -> None:
        # The label cache survives reset on purpose: it maps code
        # objects, not workload state, and staying warm is the point.
        with self._lock:
            self._counts.clear()
            self._by_component.clear()
            self._threads_seen.clear()
            self.samples = 0
