"""The platform's telemetry pipeline (ROADMAP: observability substrate).

Four cooperating parts behind one facade, :class:`TelemetryHub`:

- :class:`~repro.core.telemetry.timeseries.TimeSeriesStore` — every
  ``PlatformMetrics`` series scraped on a scheduler tick into
  ring-buffered history with 1s→10s→1m rollups (``admin_timeseries``);
- :class:`~repro.core.telemetry.slo.SLOEngine` — the declarative SLOs
  of :func:`~repro.core.telemetry.slo.default_slos` evaluated as
  fast/slow multi-window burn rates against error budgets
  (``admin_health`` + structured alert events);
- :class:`~repro.core.telemetry.profiler.ContinuousProfiler` — a
  ``sys._current_frames()`` wall-clock sampler attributing samples to
  registered components, folded-stack output (``admin_profile``);
- :class:`~repro.core.telemetry.events.WideEventLog` — one tail-sampled
  structured event per query / ingest batch / breaker flip / node event
  / SLO transition, carrying trace ids as exemplars.

Everything is purely observational (on in both profiles): query answers
are byte-identical telemetry on or off, and the ``bench-gates`` CI job
gates the measured overhead at ≤10% on the 6000-friend query.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .events import WideEventLog
from .profiler import ContinuousProfiler
from .slo import SLOEngine, default_slos
from .timeseries import TimeSeriesStore

__all__ = [
    "TelemetryHub",
    "TimeSeriesStore",
    "SLOEngine",
    "ContinuousProfiler",
    "WideEventLog",
]


class TelemetryHub:
    """Owns the store, SLO engine, profiler and event log for one
    platform; :meth:`tick` is the scheduler's scrape job."""

    def __init__(self, metrics: Any, config: Any) -> None:
        self.metrics = metrics
        self.store = TimeSeriesStore(base_samples=config.base_samples)
        self.events = WideEventLog(
            interesting_capacity=config.interesting_capacity,
            metrics=metrics,
        )
        self.slo = SLOEngine(
            default_slos(), self.store, metrics=metrics, events=self.events
        )
        self.profiler: Optional[ContinuousProfiler] = None
        if config.profiler_enabled:
            self.profiler = ContinuousProfiler(
                interval_s=config.profiler_interval_s, metrics=metrics
            )
        #: ``fn(now)`` hooks run before each scrape — the platform uses
        #: one to refresh derived gauges (ingest freshness, queue depths)
        #: so they are current in the same tick that samples them.
        self._collectors: List[Callable[[float], None]] = []

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "TelemetryHub":
        if self.profiler is not None:
            self.profiler.start()
        return self

    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()

    def add_collector(self, fn: Callable[[float], None]) -> None:
        self._collectors.append(fn)

    # ------------------------------------------------------------- scraping

    def tick(self, now: float) -> Dict[str, Any]:
        """One scheduler tick: run collectors, scrape the registry into
        the store, re-evaluate every SLO.  Returns a firing summary."""
        for fn in self._collectors:
            try:
                fn(now)
            except Exception:  # noqa: BLE001 - a bad collector must not
                pass  # starve the scrape itself
        series = self.store.scrape(self.metrics.scrape_values(), now)
        health = self.slo.evaluate(now)
        return {"series": series, "state": health["state"], "at": now}

    # -------------------------------------------------------------- health

    def health(self) -> Dict[str, Any]:
        """Current health verdict.

        Re-evaluates at the last scrape's timestamp (idempotent given an
        unchanged store), so the REST path always reflects the newest
        scraped data without advancing any window.
        """
        at = self.store.last_scrape_at
        if at is None:
            return {
                "state": "healthy",
                "evaluated_at": None,
                "slos": [],
                "scrapes": 0,
            }
        out = self.slo.evaluate(at)
        out["scrapes"] = self.store.scrapes
        return out

    def describe(self) -> Dict[str, Any]:
        return {
            "enabled": True,
            "store": self.store.describe(),
            "slo": self.slo.describe(),
            "events": self.events.stats(),
            "profiler": (
                self.profiler.stats() if self.profiler is not None else None
            ),
        }
