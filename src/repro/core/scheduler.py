"""Periodic batch-job scheduling over simulated time.

The paper's processing modules run "periodically" (Data Collection,
HotIn Update, Event Detection).  :class:`PeriodicScheduler` drives them
against a simulated clock: callers advance time, the scheduler fires
whichever jobs are due, in deterministic registration order — so tests
and examples can replay whole platform days reproducibly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import ValidationError
from .. import threadreg
from .supervisor import HEARTBEAT_PERIOD_S, SCRUB_PERIOD_S
from .tracing import NULL_TRACER, Tracer

#: Periods of the platform's jobs, in simulated seconds.
DATA_COLLECTION_PERIOD_S = 900.0
EVENT_DETECTION_PERIOD_S = 3600.0
#: The demoted batch MapReduce pass: verify-and-repair of the
#: incrementally folded HotIn state.
HOTIN_RECONCILE_PERIOD_S = 3600.0
INGEST_REBALANCE_PERIOD_S = 60.0
#: Drops TTL-expired and seqid-stale scan-cache entries.
CACHE_SWEEP_PERIOD_S = 60.0
TELEMETRY_SCRAPE_PERIOD_S = 1.0
#: Brownout-ladder evaluation.
ADMISSION_TICK_PERIOD_S = 1.0
#: Aggregation window *T* for hotness/interest (paper Section 2.2).
HOTIN_WINDOW_S = 7 * 24 * 3600.0


@dataclass
class ScheduledJob:
    """One periodic job: fires every ``period_s`` simulated seconds.

    ``callback(now)`` receives the firing time; its return value is kept
    in :attr:`last_result` for inspection.
    """

    name: str
    period_s: float
    callback: Callable
    next_fire_at: float
    enabled: bool = True
    #: Cron semantics (the default): a job that missed N periods fires N
    #: times, once per missed window — right for batch pipelines where
    #: every window must be processed.  ``catch_up=False`` gives
    #: level-triggered semantics: after firing, the next deadline skips
    #: straight past ``new_now`` — right for scrape/sample jobs where
    #: replaying a simulated day as 86 400 back-to-back scrapes of the
    #: *same* current state would be pure waste.
    catch_up: bool = True
    #: Whether the brownout ladder may pause this job under overload.
    #: Background batch work (HotIn folds, scrubs, rebalances) is
    #: pausable; liveness- and observability-critical jobs (telemetry
    #: scrape, supervisor heartbeat, the admission tick itself) are not.
    pausable: bool = False
    #: Pause state (see :meth:`PeriodicScheduler.pause`).  A paused job
    #: keeps its registration but never fires; resuming re-anchors its
    #: next deadline one period out — missed windows are *not* replayed,
    #: matching the overload contract that deferred background work is
    #: shed, not queued.
    paused: bool = False
    fire_count: int = 0
    last_result: Any = None
    #: Firings whose callback raised; the job keeps its schedule.
    failure_count: int = 0
    #: ``"ExcType: message"`` of the most recent failure, None after a
    #: successful firing.
    last_error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValidationError("period_s must be positive")


class PeriodicScheduler:
    """A deterministic simulated-time job scheduler.

    Jobs fire when ``advance_to`` crosses their deadline; a job that
    missed several periods fires once per missed period (catch-up),
    matching cron-like semantics for batch pipelines where every window
    must be processed.
    """

    def __init__(
        self,
        start_at: float = 0.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.now = start_at
        self._jobs: Dict[str, ScheduledJob] = {}
        self._order: List[str] = []
        #: Observability sinks: every firing emits a ``scheduler.job``
        #: span and a per-job wall-time histogram (no-ops when unset).
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics

    def register(
        self,
        name: str,
        period_s: float,
        callback: Callable,
        first_fire_at: Optional[float] = None,
        catch_up: bool = True,
        pausable: bool = False,
    ) -> ScheduledJob:
        """Add a job; first firing defaults to one period from now."""
        if name in self._jobs:
            raise ValidationError("job %r already registered" % name)
        job = ScheduledJob(
            name=name,
            period_s=period_s,
            callback=callback,
            next_fire_at=(
                first_fire_at if first_fire_at is not None
                else self.now + period_s
            ),
            catch_up=catch_up,
            pausable=pausable,
        )
        self._jobs[name] = job
        self._order.append(name)
        return job

    def job(self, name: str) -> ScheduledJob:
        try:
            return self._jobs[name]
        except KeyError:
            raise ValidationError("no job named %r" % name) from None

    def set_enabled(self, name: str, enabled: bool) -> None:
        self.job(name).enabled = enabled

    def pause(self, name: str) -> None:
        """Stop ``name`` firing until :meth:`resume` — idempotent."""
        self.job(name).paused = True

    def resume(self, name: str) -> None:
        """Un-pause ``name``, level-triggered: the next deadline is one
        period from *now* and the windows missed while paused are never
        replayed — paused background work is shed, not queued."""
        job = self.job(name)
        if not job.paused:
            return
        job.paused = False
        job.next_fire_at = self.now + job.period_s

    def pause_pausable(self) -> List[str]:
        """Pause every job registered ``pausable`` (the brownout ladder's
        level-3 rung); returns the names newly paused."""
        paused = []
        for name in self._order:
            job = self._jobs[name]
            if job.pausable and not job.paused:
                job.paused = True
                paused.append(name)
        if paused and self.metrics is not None:
            self.metrics.increment("scheduler.jobs_paused", len(paused))
        return paused

    def resume_pausable(self) -> List[str]:
        """Resume every paused pausable job; returns the names resumed."""
        resumed = []
        for name in self._order:
            job = self._jobs[name]
            if job.pausable and job.paused:
                self.resume(name)
                resumed.append(name)
        if resumed and self.metrics is not None:
            self.metrics.increment("scheduler.jobs_resumed", len(resumed))
        return resumed

    def advance_to(self, new_now: float) -> List[tuple]:
        """Move the clock forward, firing due jobs.

        Returns the firing log: ``(fire_time, job_name, result)`` tuples
        in execution order.
        """
        if new_now < self.now:
            raise ValidationError(
                "time cannot move backwards (%r -> %r)" % (self.now, new_now)
            )
        log: List[tuple] = []
        # Fire in global time order; ties break by registration order.
        while True:
            due = [
                self._jobs[name]
                for name in self._order
                if self._jobs[name].enabled
                and not self._jobs[name].paused
                and self._jobs[name].next_fire_at <= new_now
            ]
            if not due:
                break
            job = min(
                due, key=lambda j: (j.next_fire_at, self._order.index(j.name))
            )
            fire_time = job.next_fire_at
            self.now = fire_time
            span = self.tracer.span(
                "scheduler.job", job=job.name, fire_at=fire_time
            )
            wall_start = time.perf_counter()
            previous_component = threadreg.push_component("scheduler")
            try:
                # One job's crash must not starve its later periods or
                # the other jobs: record the failure and keep firing.
                job.last_result = job.callback(fire_time)
                job.last_error = None
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                job.last_result = None
                job.failure_count += 1
                job.last_error = "%s: %s" % (type(exc).__name__, exc)
                span.tag("error", type(exc).__name__)
                if self.metrics is not None:
                    self.metrics.increment(
                        "scheduler.job_failures", labels={"job": job.name}
                    )
            finally:
                threadreg.pop_component(previous_component)
                wall_ms = (time.perf_counter() - wall_start) * 1e3
                span.finish()
            if self.metrics is not None:
                self.metrics.increment(
                    "scheduler.fired", labels={"job": job.name}
                )
                self.metrics.record_latency(
                    "scheduler.job_wall", wall_ms, labels={"job": job.name}
                )
            job.fire_count += 1
            if job.catch_up:
                job.next_fire_at = fire_time + job.period_s
            else:
                # Level-triggered: skip every missed window so a large
                # time jump costs one firing, not one per period.
                missed = int((new_now - fire_time) / job.period_s) + 1
                job.next_fire_at = fire_time + missed * job.period_s
            log.append((fire_time, job.name, job.last_result))
        self.now = new_now
        return log

    def advance_by(self, seconds: float) -> List[tuple]:
        """Convenience: ``advance_to(now + seconds)``."""
        return self.advance_to(self.now + seconds)


def build_platform_scheduler(platform, start_at: float = 0.0) -> PeriodicScheduler:
    """Wire a scheduler with the paper's periodic modules plus every
    subsystem's maintenance jobs.

    The HotIn reconcile pass checks the trailing ``HOTIN_WINDOW_S``.
    """
    scheduler = PeriodicScheduler(
        start_at=start_at, tracer=platform.tracer, metrics=platform.metrics
    )

    scheduler.register(
        "data_collection",
        DATA_COLLECTION_PERIOD_S,
        lambda now: platform.collect(int(now)),
        pausable=True,
    )
    # Streaming ingest keeps hotness fresh incrementally; the batch
    # MapReduce is a periodic verify-and-repair pass, and the load-aware
    # rebalancer gets its observation-window check.
    scheduler.register(
        "hotin_reconcile",
        HOTIN_RECONCILE_PERIOD_S,
        lambda now: platform.reconcile_hotin(
            int(now - HOTIN_WINDOW_S), int(now)
        ),
        pausable=True,
    )
    scheduler.register(
        "ingest_rebalance",
        INGEST_REBALANCE_PERIOD_S,
        lambda now: platform.ingest.maybe_rebalance(),
        pausable=True,
    )
    scheduler.register(
        "event_detection",
        EVENT_DETECTION_PERIOD_S,
        lambda now: platform.detect_events(until=int(now)),
        pausable=True,
    )
    if platform.telemetry is not None:
        # One scrape per simulated second while time advances normally;
        # level-triggered (catch_up=False) so replaying a whole platform
        # day costs one scrape, not 86 400 scrapes of identical state.
        scheduler.register(
            "telemetry_scrape",
            TELEMETRY_SCRAPE_PERIOD_S,
            lambda now: platform.telemetry.tick(now),
            catch_up=False,
        )
    # Reap scan-cache generations no lookup can accept anymore (their
    # region's write journal no longer reaches back to them).
    scheduler.register(
        "cache_maintenance",
        CACHE_SWEEP_PERIOD_S,
        lambda now: platform.sweep_caches(),
        pausable=True,
    )
    # Heartbeat + scrub are level-triggered: a large jump costs one tick
    # each, and the lease check compares against the *new* now, so a
    # crash during a long idle stretch is still detected at the first
    # tick after the jump.  Drill tests advance in sub-lease steps to
    # measure honest detection latency.
    scheduler.register(
        "supervisor_heartbeat",
        HEARTBEAT_PERIOD_S,
        lambda now: platform.supervisor.heartbeat_tick(now),
        catch_up=False,
    )
    scheduler.register(
        "storage_scrub",
        SCRUB_PERIOD_S,
        lambda now: platform.supervisor.scrub_tick(now),
        catch_up=False,
        pausable=True,
    )
    # The ladder's clock: evaluate overload signals and move the
    # brownout level.  Level-triggered and NOT pausable — the ladder
    # must keep ticking to ever step back down, and replaying missed
    # ticks after a jump would fast-forward the hysteresis.
    scheduler.register(
        "admission_tick",
        ADMISSION_TICK_PERIOD_S,
        lambda now: platform.admission.tick(now),
        catch_up=False,
    )
    platform.admission.scheduler = scheduler
    return scheduler
