"""Thread → component registry for the sampling profiler.

The continuous profiler (:mod:`repro.core.telemetry.profiler`) samples
``sys._current_frames()`` and must attribute each thread's samples to a
platform component — ingest appliers, scheduler jobs, REST handlers
(region and map/reduce work runs in the thread that asked for it, so it
is sampled under that caller's component).  Thread objects cannot carry that attribution portably,
so this module keeps a process-wide ``ident -> component`` map.

It lives at the top of the package on purpose: ``repro.hbase``,
``repro.core.scheduler`` and ``repro.core.api`` all register here, and a
registry inside ``repro.core.telemetry`` would create an import cycle
(``repro.core`` → ``platform`` → ``hbase`` → ``telemetry`` → ...).
This module therefore imports nothing from ``repro``.

Two registration styles:

- :func:`register_current_thread` — permanent, for dedicated worker
  threads (the ingest appliers, the profiler itself);
- :func:`push_component` / :func:`pop_component` — scoped, for threads
  that wear different hats over time (the main thread is "rest" while
  inside ``RestApi.handle`` and "scheduler" while a job callback runs).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = [
    "register_current_thread",
    "unregister_current_thread",
    "push_component",
    "pop_component",
    "component_of",
    "snapshot",
]

_lock = threading.Lock()
_components: Dict[int, str] = {}


def register_current_thread(component: str) -> None:
    """Permanently attribute the calling thread's samples to ``component``."""
    with _lock:
        _components[threading.get_ident()] = component


def unregister_current_thread() -> None:
    with _lock:
        _components.pop(threading.get_ident(), None)


def push_component(component: str) -> Optional[str]:
    """Scoped attribution: returns the previous component (restore it
    with :func:`pop_component` in a ``finally`` block)."""
    ident = threading.get_ident()
    with _lock:
        previous = _components.get(ident)
        _components[ident] = component
    return previous


def pop_component(previous: Optional[str]) -> None:
    ident = threading.get_ident()
    with _lock:
        if previous is None:
            _components.pop(ident, None)
        else:
            _components[ident] = previous


def component_of(ident: int) -> Optional[str]:
    with _lock:
        return _components.get(ident)


def snapshot() -> Dict[int, str]:
    """A point-in-time copy of the whole map (one profiler sample)."""
    with _lock:
        return dict(_components)
