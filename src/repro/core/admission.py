"""Overload-safe serving: admission control and the brownout ladder.

MoDisSENSE's serving tier (REST boundary -> web-server farm ->
coprocessor fan-out) has no intrinsic overload story: past saturation,
latency collapses for *every* request while throughput stays flat.  This
module adds the missing layer (:class:`~repro.config.AdmissionConfig`;
``PlatformConfig.baseline()`` builds none).  Un-triggered, it only
acquires and releases a ticket per request — answers are byte-identical
to the baseline's:

- :class:`GradientLimiter` — one AIMD concurrency limiter per priority
  class (interactive > admin > background), driven by observed-vs-
  baseline latency: a congested window shrinks the limit
  multiplicatively, a calm one grows it additively.
- :class:`TokenBucket` per ``client_id`` at the REST boundary — a noisy
  client is throttled before it can displace everyone else.
- :class:`RetryBudget` — a global sliding-window budget capping fan-out
  retries + hedges at a fraction of recent region requests, so recovery
  machinery cannot amplify an overload into a retry storm.
- :class:`AdmissionController` — ties the signals into a **brownout
  ladder** that degrades before it rejects: stale hot-POI cache serves,
  shrunk scans and k, paused background jobs + ingest shed, and only
  then priority-ordered rejection (background first, interactive last).

Rejections surface as :class:`~repro.errors.OverloadedError` (HTTP 429
with ``Retry-After`` at the REST tier).  Every decision is observable:
``admission.*`` counters/gauges, ``admission.state`` wide events, and
the ``goodput`` SLO over offered-vs-rejected.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional

from ..config import AdmissionConfig
from ..errors import OverloadedError, ValidationError

#: Priority classes, best-served first.  The ladder rejects from the
#: tail of this tuple; the AIMD limiters start with weighted limits in
#: the same order.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_ADMIN = "admin"
PRIORITY_BACKGROUND = "background"
PRIORITIES = (PRIORITY_INTERACTIVE, PRIORITY_ADMIN, PRIORITY_BACKGROUND)
#: Share of ``initial_limit`` each class's limiter starts from (each
#: class runs its own AIMD loop afterwards).
CLASS_WEIGHTS = {
    PRIORITY_INTERACTIVE: 1.0,
    PRIORITY_ADMIN: 0.5,
    PRIORITY_BACKGROUND: 0.25,
}
#: LRU-bounded number of per-client token buckets kept.
MAX_CLIENTS = 1024
#: A tick is "overloaded" when the window's rejection rate exceeds
#: ``BROWNOUT_REJECT_RATE``, or the interactive median latency exceeds
#: ``BROWNOUT_LATENCY_FACTOR`` x baseline.
BROWNOUT_REJECT_RATE = 0.05
BROWNOUT_LATENCY_FACTOR = 3.0
#: Scan shaping applied at the SHRINK level and above: cap each
#: region's shipped partial list and the query's k.
BROWNOUT_PER_REGION_LIMIT = 64
BROWNOUT_MAX_K = 5

#: Brownout ladder rungs, mildest first.  Each level keeps every
#: degradation of the levels below it.
LEVEL_NORMAL = 0
LEVEL_STALE = 1  # serve stale hot-POI cache entries (flagged degraded)
LEVEL_SHRINK = 2  # shrink per-region partials and cap k
LEVEL_PAUSE = 3  # pause pausable scheduler jobs + couple ingest shed
LEVEL_REJECT_BACKGROUND = 4  # reject the background class outright
LEVEL_REJECT_ADMIN = 5  # reject admin too; interactive is last to fall
LEVEL_NAMES = (
    "normal",
    "stale",
    "shrink",
    "pause",
    "reject_background",
    "reject_admin",
)
MAX_LEVEL = len(LEVEL_NAMES) - 1


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``clock`` is injectable so tests drive it deterministically; the
    default is wall time (:func:`time.monotonic`).
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValidationError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._clock = clock
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; never blocks."""
        with self._lock:
            self._refill()
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after_s(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will have accrued."""
        with self._lock:
            self._refill()
            missing = amount - self._tokens
            return max(0.0, missing / self.rate)

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now


class RetryBudget:
    """Global sliding-window budget over fan-out retries and hedges.

    Tracks region requests and budget spends in one-second buckets over
    ``window_s``.  A spend is granted while spends stay at or below
    ``max(min_tokens, ratio x window_requests)`` — i.e. recovery work
    may amplify offered load by at most ``ratio`` (plus a small floor so
    cold-start retries still function).  Duck-typed against
    :meth:`repro.hbase.client.HBaseCluster.attach_retry_budget`: the
    ``hbase`` package never imports this module.
    """

    def __init__(
        self,
        ratio: float = 0.1,
        window_s: float = 10.0,
        min_tokens: int = 5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValidationError("ratio must be in (0, 1]")
        if window_s <= 0:
            raise ValidationError("window_s must be positive")
        self.ratio = ratio
        self.window_s = window_s
        self.min_tokens = min_tokens
        self._clock = clock
        self._lock = threading.Lock()
        #: bucket start second -> [requests, spends]
        self._buckets: "deque[List[float]]" = deque()
        self.denied = 0
        self.spent = 0

    def record_request(self, amount: int = 1) -> None:
        """Count ``amount`` first-attempt region requests."""
        with self._lock:
            self._bucket()[1] += amount

    def try_spend(self, amount: int = 1) -> bool:
        """Draw ``amount`` retry/hedge tokens; False means the caller
        must degrade instead of retrying."""
        with self._lock:
            self._bucket()
            requests = sum(b[1] for b in self._buckets)
            spends = sum(b[2] for b in self._buckets)
            allowed = max(float(self.min_tokens), self.ratio * requests)
            if spends + amount <= allowed:
                self._buckets[-1][2] += amount
                self.spent += amount
                return True
            self.denied += amount
            return False

    def _bucket(self) -> List[float]:
        """The current one-second bucket (pruning expired ones)."""
        now_s = int(self._clock())
        while self._buckets and self._buckets[0][0] <= now_s - self.window_s:
            self._buckets.popleft()
        if not self._buckets or self._buckets[-1][0] != now_s:
            self._buckets.append([now_s, 0, 0])
        return self._buckets[-1]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            self._bucket()
            requests = sum(b[1] for b in self._buckets)
            spends = sum(b[2] for b in self._buckets)
            return {
                "ratio": self.ratio,
                "window_s": self.window_s,
                "window_requests": requests,
                "window_spends": spends,
                "allowed": max(float(self.min_tokens), self.ratio * requests),
                "spent_total": self.spent,
                "denied_total": self.denied,
            }


class GradientLimiter:
    """An AIMD concurrency limiter driven by observed latency.

    Admits while in-flight count is below the current limit.  Every
    ``sample_window`` completions the windowed median latency is
    compared against ``tolerance x baseline``: above it the limit
    shrinks multiplicatively (congestion), otherwise it grows additively
    (probe for headroom).  The baseline is either fixed from config or
    learned online as the smallest windowed median seen, drifting up 2%
    per window so a genuine regime change is eventually adopted.
    """

    def __init__(
        self,
        name: str,
        initial_limit: int,
        min_limit: int,
        max_limit: int,
        latency_tolerance: float = 2.0,
        decrease_factor: float = 0.7,
        increase_step: float = 1.0,
        sample_window: int = 16,
        baseline_latency_ms: Optional[float] = None,
    ) -> None:
        self.name = name
        self.min_limit = max(1, min_limit)
        self.max_limit = max_limit
        self.latency_tolerance = latency_tolerance
        self.decrease_factor = decrease_factor
        self.increase_step = increase_step
        self.sample_window = sample_window
        self._limit = float(
            min(max(initial_limit, self.min_limit), max_limit)
        )
        self._inflight = 0
        self._samples: List[float] = []
        self._baseline = baseline_latency_ms
        self._fixed_baseline = baseline_latency_ms is not None
        self._decreases = 0
        self._increases = 0
        self._lock = threading.Lock()

    @property
    def limit(self) -> int:
        return int(self._limit)

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def baseline_ms(self) -> Optional[float]:
        return self._baseline

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= int(self._limit):
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    def observe(self, latency_ms: float) -> None:
        """Feed one completion latency; adjusts once per full window."""
        with self._lock:
            self._samples.append(latency_ms)
            if len(self._samples) < self.sample_window:
                return
            ordered = sorted(self._samples)
            p50 = ordered[len(ordered) // 2]
            del self._samples[:]
            if not self._fixed_baseline:
                self._baseline = (
                    p50
                    if self._baseline is None
                    else min(p50, self._baseline * 1.02)
                )
            if p50 > self.latency_tolerance * self._baseline:
                self._limit = max(
                    float(self.min_limit),
                    self._limit * self.decrease_factor,
                )
                self._decreases += 1
            else:
                self._limit = min(
                    float(self.max_limit), self._limit + self.increase_step
                )
                self._increases += 1

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "limit": int(self._limit),
                "inflight": self._inflight,
                "baseline_ms": self._baseline,
                "baseline_fixed": self._fixed_baseline,
                "decreases": self._decreases,
                "increases": self._increases,
            }


class AdmissionTicket:
    """One admitted request's permit.  ``finish`` releases the limiter
    slot and (for latency-bearing endpoints) feeds the AIMD loop —
    idempotent, so a ``finally`` and an explicit call can coexist."""

    __slots__ = ("_controller", "priority", "_done")

    def __init__(self, controller: "AdmissionController", priority: str) -> None:
        self._controller = controller
        self.priority = priority
        self._done = False

    def finish(self, latency_ms: Optional[float] = None) -> None:
        if self._done:
            return
        self._done = True
        self._controller._finish(self.priority, latency_ms)


class AdmissionController:
    """The overload-protection brain: admit/reject decisions, the retry
    budget, and the brownout ladder.

    ``tick(now)`` is the ladder's clock (the scheduler's
    ``admission_tick`` job): it reads the window's rejection rate and
    interactive latency signal and moves the level with hysteresis
    (``escalate_ticks`` consecutive overloaded ticks to climb one rung,
    ``recover_ticks`` calm ticks to step down).
    """

    def __init__(
        self,
        config: AdmissionConfig,
        metrics: Optional[Any] = None,
        event_log: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.event_log = event_log
        self._clock = clock
        self.limiters: Dict[str, GradientLimiter] = {
            cls: GradientLimiter(
                cls,
                initial_limit=max(
                    1, int(config.initial_limit * CLASS_WEIGHTS[cls])
                ),
                min_limit=config.min_limit,
                max_limit=config.max_limit,
                latency_tolerance=config.latency_tolerance,
                decrease_factor=config.decrease_factor,
                increase_step=config.increase_step,
                sample_window=config.sample_window,
                baseline_latency_ms=config.baseline_latency_ms,
            )
            for cls in PRIORITIES
        }
        self.retry_budget = RetryBudget(clock=clock)
        self._clients: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._lock = threading.Lock()
        self.level = LEVEL_NORMAL
        #: Hysteresis state: consecutive overloaded / calm ticks.
        self._hot_ticks = 0
        self._calm_ticks = 0
        self._forced = False
        #: Per-tick window counters (reset every ``tick``).
        self._win_offered = 0
        self._win_rejected = 0
        self._win_latencies: List[float] = []
        #: Lifetime counters mirrored into metrics.
        self.offered = 0
        self.rejected = 0
        self._scheduler: Optional[Any] = None
        self._ingest: Optional[Any] = None

    # ------------------------------------------------------------ wiring

    def attach_scheduler(self, scheduler: Any) -> None:
        """Give the ladder its level-3 lever (pause/resume jobs)."""
        self._scheduler = scheduler

    def attach_ingest(self, ingest: Any) -> None:
        """Give the ladder its ingest-shed lever (level 3+)."""
        self._ingest = ingest

    # ------------------------------------------------------- admit path

    def admit(
        self, priority: str = PRIORITY_INTERACTIVE, client_id: Optional[str] = None
    ) -> AdmissionTicket:
        """Admit one request or raise :class:`OverloadedError`.

        Checks, cheapest first: the ladder's outright-reject rungs, the
        caller's token bucket, then the class limiter.  Every offer and
        every rejection is counted (labeled by class/reason *and* as the
        unlabeled series the ``goodput`` SLO reads).
        """
        if priority not in self.limiters:
            raise ValidationError("unknown priority class %r" % priority)
        self._count_offer(priority)
        level = self.level
        if (
            level >= LEVEL_REJECT_BACKGROUND
            and priority == PRIORITY_BACKGROUND
        ) or (level >= LEVEL_REJECT_ADMIN and priority == PRIORITY_ADMIN):
            self._reject(
                priority,
                "brownout",
                retry_after_s=float(1 + level),
                detail="brownout level %s sheds %s traffic"
                % (LEVEL_NAMES[level], priority),
            )
        if client_id is not None:
            bucket = self._client_bucket(client_id)
            if not bucket.try_take():
                self._reject(
                    priority,
                    "rate_limited",
                    retry_after_s=max(0.05, bucket.retry_after_s()),
                    detail="client %r over %.0f req/s" % (
                        client_id, bucket.rate,
                    ),
                )
        limiter = self.limiters[priority]
        if not limiter.try_acquire():
            self._reject(
                priority,
                "concurrency",
                retry_after_s=0.5 * (1 + level),
                detail="%s concurrency limit %d reached"
                % (priority, limiter.limit),
            )
        return AdmissionTicket(self, priority)

    def _finish(self, priority: str, latency_ms: Optional[float]) -> None:
        limiter = self.limiters[priority]
        limiter.release()
        if latency_ms is None:
            return
        limiter.observe(latency_ms)
        if priority == PRIORITY_INTERACTIVE:
            with self._lock:
                self._win_latencies.append(latency_ms)

    def _client_bucket(self, client_id: str) -> TokenBucket:
        cfg = self.config
        with self._lock:
            bucket = self._clients.get(client_id)
            if bucket is None:
                bucket = TokenBucket(
                    cfg.client_rate, cfg.client_burst, clock=self._clock
                )
                self._clients[client_id] = bucket
                while len(self._clients) > MAX_CLIENTS:
                    self._clients.popitem(last=False)
            else:
                self._clients.move_to_end(client_id)
            return bucket

    def _count_offer(self, priority: str) -> None:
        with self._lock:
            self.offered += 1
            self._win_offered += 1
        if self.metrics is not None:
            self.metrics.increment("admission.offered")
            self.metrics.increment(
                "admission.offered", labels={"class": priority}
            )

    def _reject(
        self, priority: str, reason: str, retry_after_s: float, detail: str
    ) -> None:
        with self._lock:
            self.rejected += 1
            self._win_rejected += 1
        if self.metrics is not None:
            self.metrics.increment("admission.rejected")
            self.metrics.increment(
                "admission.rejected",
                labels={"class": priority, "reason": reason},
            )
        raise OverloadedError(
            "overloaded (%s): %s" % (reason, detail),
            retry_after_s=retry_after_s,
        )

    # -------------------------------------------------- brownout ladder

    def stale_ok(self) -> bool:
        """Level 1+: stale hot-POI cache answers are acceptable."""
        return self.level >= LEVEL_STALE

    def query_shape(self) -> Optional[Dict[str, int]]:
        """Level 2+ scan shaping, or None when queries run unshaped."""
        if self.level < LEVEL_SHRINK:
            return None
        return {
            "per_region_limit": BROWNOUT_PER_REGION_LIMIT,
            "max_k": BROWNOUT_MAX_K,
        }

    def tick(self, now: Optional[float] = None) -> int:
        """One ladder evaluation; returns the (possibly new) level.

        Reads and resets the tick window.  A tick is *overloaded* when
        the window's rejection rate exceeds ``BROWNOUT_REJECT_RATE`` or
        the interactive median latency exceeds ``BROWNOUT_LATENCY_FACTOR
        x baseline``; hysteresis turns runs of such ticks into level
        moves.  A forced level (``force_level``) holds until ``reset``.
        """
        cfg = self.config
        with self._lock:
            offered = self._win_offered
            rejected = self._win_rejected
            latencies = self._win_latencies
            self._win_offered = 0
            self._win_rejected = 0
            self._win_latencies = []
        reject_rate = rejected / offered if offered else 0.0
        median_ms = None
        if latencies:
            latencies.sort()
            median_ms = latencies[len(latencies) // 2]
        baseline = self.limiters[PRIORITY_INTERACTIVE].baseline_ms
        hot_latency = (
            median_ms is not None
            and baseline is not None
            and median_ms > BROWNOUT_LATENCY_FACTOR * baseline
        )
        overloaded = reject_rate > BROWNOUT_REJECT_RATE or hot_latency
        if not self._forced:
            if overloaded:
                self._hot_ticks += 1
                self._calm_ticks = 0
                if (
                    self._hot_ticks >= cfg.escalate_ticks
                    and self.level < MAX_LEVEL
                ):
                    self._hot_ticks = 0
                    self._set_level(
                        self.level + 1,
                        reason="escalate",
                        now=now,
                        reject_rate=reject_rate,
                        median_ms=median_ms,
                    )
            else:
                self._calm_ticks += 1
                self._hot_ticks = 0
                if (
                    self._calm_ticks >= cfg.recover_ticks
                    and self.level > LEVEL_NORMAL
                ):
                    self._calm_ticks = 0
                    self._set_level(
                        self.level - 1,
                        reason="recover",
                        now=now,
                        reject_rate=reject_rate,
                        median_ms=median_ms,
                    )
        if self.metrics is not None:
            self.metrics.set_gauge("admission.brownout_level", self.level)
            for cls, limiter in self.limiters.items():
                self.metrics.set_gauge(
                    "admission.limit", limiter.limit, labels={"class": cls}
                )
                self.metrics.set_gauge(
                    "admission.inflight",
                    limiter.inflight,
                    labels={"class": cls},
                )
        return self.level

    def _set_level(
        self,
        level: int,
        reason: str,
        now: Optional[float] = None,
        reject_rate: float = 0.0,
        median_ms: Optional[float] = None,
    ) -> None:
        level = max(LEVEL_NORMAL, min(MAX_LEVEL, level))
        previous = self.level
        if level == previous:
            return
        self.level = level
        # Level-3 levers are edge-triggered on crossing the rung in
        # either direction; the other rungs are read directly by their
        # consumers (stale_ok / query_shape / admit).
        if previous < LEVEL_PAUSE <= level:
            if self._scheduler is not None:
                self._scheduler.pause_pausable()
            if self._ingest is not None:
                self._ingest.set_shed_override(True)
        elif level < LEVEL_PAUSE <= previous:
            if self._scheduler is not None:
                self._scheduler.resume_pausable()
            if self._ingest is not None:
                self._ingest.set_shed_override(False)
        if self.metrics is not None:
            self.metrics.increment(
                "admission.level_changes", labels={"direction": reason}
            )
            self.metrics.set_gauge("admission.brownout_level", level)
        if self.event_log is not None:
            self.event_log.emit(
                {
                    "type": "admission.state",
                    "level": level,
                    "level_name": LEVEL_NAMES[level],
                    "previous_level": previous,
                    "previous_name": LEVEL_NAMES[previous],
                    "reason": reason,
                    "reject_rate": reject_rate,
                    "median_latency_ms": median_ms,
                    "now": now,
                }
            )

    def force_level(self, level: int) -> int:
        """Pin the ladder at ``level`` (admin/drill control); held until
        :meth:`reset`.  Returns the applied (clamped) level."""
        level = max(LEVEL_NORMAL, min(MAX_LEVEL, level))
        self._forced = True
        self._set_level(level, reason="forced")
        return self.level

    def reset(self) -> None:
        """Back to level 0 with cleared hysteresis; unpins a forced
        level and releases the level-3 levers if held."""
        self._forced = False
        self._hot_ticks = 0
        self._calm_ticks = 0
        self._set_level(LEVEL_NORMAL, reason="reset")

    # ------------------------------------------------------------ admin

    def describe(self) -> Dict[str, Any]:
        """Full controller state for the admin surface and drills."""
        with self._lock:
            window = {
                "offered": self._win_offered,
                "rejected": self._win_rejected,
                "latency_samples": len(self._win_latencies),
            }
            clients = len(self._clients)
        return {
            "enabled": True,
            "level": self.level,
            "level_name": LEVEL_NAMES[self.level],
            "forced": self._forced,
            "offered": self.offered,
            "rejected": self.rejected,
            "window": window,
            "clients_tracked": clients,
            "limiters": {
                cls: limiter.describe()
                for cls, limiter in self.limiters.items()
            },
            "retry_budget": self.retry_budget.stats(),
            "hot_ticks": self._hot_ticks,
            "calm_ticks": self._calm_ticks,
        }
