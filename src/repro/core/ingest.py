"""Streaming ingest tier: bounded queues, group commit, incremental HotIn.

The seed write path acknowledges every visit individually: one WAL
append (one fsync-equivalent), one sorted memstore insert, and hotness
that only moves when the periodic batch MapReduce recomputes the whole
window.  At millions of users that is the platform's scalability cliff —
ROADMAP item 1.  This tier rebuilds the write path the way the streaming
literature does (see PAPERS.md: "Adaptive Processing of Spatial-Keyword
Data Over a Distributed Streaming Cluster" for load-aware repartitioning,
"Distributed Publish/Subscribe Query Processing on the Spatio-Textual
Data Stream" for incrementally-maintained aggregates):

- **Bounded partition queues with backpressure.**  Producers submit
  visits to per-partition queues of fixed capacity.  A full queue either
  blocks the producer (bounded wait) or sheds the write immediately —
  both end in a typed :class:`~repro.errors.BackpressureError` rather
  than unbounded memory growth, and a rejected visit was never enqueued,
  so nothing is ever half-applied.

- **Per-region applier workers with WAL group commit.**  Each partition
  owns one applier thread that drains up to ``max_batch`` visits and
  applies them per region through :meth:`Region.put_batch`: one WAL sync
  boundary and one sorted memstore merge per region per batch instead of
  one per visit.  Regions map onto partitions many-to-one and each apply
  takes a per-region lock, so regions stay single-writer even while the
  rebalancer remaps them.

- **Incremental HotIn.**  Every applied batch folds its visit deltas
  into :class:`~repro.core.modules.hotin_update.IncrementalHotIn` and
  refreshes only the touched POI rows — hotness freshness becomes one
  batch, not one batch-job period.  The MapReduce job survives as a
  periodic *reconciliation* pass that verifies the incremental state
  against the table and repairs divergence.

- **Load-aware repartitioning.**  Per-region ingest rates are tracked in
  an observation window; when one partition's share exceeds
  ``REBALANCE_HOT_RATIO`` times the mean, its hottest region moves to
  the coolest partition.  Folds are commutative and visit row keys are
  unique, so a remap needs no barrier.

- **Crash recovery without loss or double counting.**  The applier's
  order is (1) group-commit to WAL + memstore, (2) fold HotIn deltas,
  (3) advance the per-region *fold watermark* to the batch's last WAL
  sequence.  An applier that dies between (1) and (2) leaves the
  watermark behind the WAL tail; :meth:`recover` replays exactly the
  WAL suffix past the watermark — deltas land once, never zero times,
  never twice.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import IngestConfig
from ..errors import BackpressureError, ValidationError
from .. import threadreg
from .modules.hotin_update import IncrementalHotIn
from .repositories.visits import VisitStruct, VisitsRepository
from .tracing import NULL_TRACER

#: A partition is hot when its share of the observation window's events
#: exceeds this many times the mean share.
REBALANCE_HOT_RATIO = 2.0


class _InjectedApplierCrash(Exception):
    """Deterministic fault-injection point: the applier dies after the
    group commit is durable but before the HotIn fold."""


class _PartitionQueue:
    """A bounded MPSC queue with blocking/shedding producers."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: Entries are ``(enqueue_instant, item)`` so the dequeue side
        #: can account queue wait per batch.
        self._items: deque = deque()
        self._cond = threading.Condition()

    def offer(self, item: Any, block: bool, timeout_s: float) -> bool:
        """Enqueue ``item``; returns True if the producer had to wait.

        Raises :class:`BackpressureError` when the queue stays full —
        immediately under the shed policy, after ``timeout_s`` under the
        block policy.  The item is never partially enqueued.
        """
        with self._cond:
            if len(self._items) < self.capacity:
                self._items.append((time.monotonic(), item))
                self._cond.notify_all()
                return False
            if not block:
                raise BackpressureError(
                    "ingest queue full (%d); write shed" % self.capacity
                )
            deadline = time.monotonic() + timeout_s
            while len(self._items) >= self.capacity:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackpressureError(
                        "ingest queue full (%d) for %.1fs; producer gave up"
                        % (self.capacity, timeout_s)
                    )
                self._cond.wait(remaining)
            self._items.append((time.monotonic(), item))
            self._cond.notify_all()
            return True

    def take_batch(
        self, max_batch: int, wait_s: float
    ) -> Tuple[List[Any], float]:
        """Dequeue up to ``max_batch`` items, waiting up to ``wait_s``
        for the first; wakes blocked producers after freeing space.
        Returns the batch and its maximum queue wait in seconds (the
        oldest dequeued item's age)."""
        with self._cond:
            if not self._items:
                self._cond.wait(wait_s)
            if not self._items:
                return [], 0.0
            take = min(max_batch, len(self._items))
            now = time.monotonic()
            queue_wait_s = 0.0
            batch = []
            for _ in range(take):
                enqueued_at, item = self._items.popleft()
                queue_wait_s = max(queue_wait_s, now - enqueued_at)
                batch.append(item)
            self._cond.notify_all()
            return batch, queue_wait_s

    def depth(self) -> int:
        with self._cond:
            return len(self._items)


class StreamingIngestTier:
    """Bounded-queue streaming writes with incremental HotIn maintenance.

    One instance serves one platform; producers call :meth:`submit` (or
    :meth:`submit_many`), applier threads do everything else.  The tier
    is inert until :meth:`start` and idempotently stoppable.
    """

    def __init__(
        self,
        visits_repository: VisitsRepository,
        poi_repository,
        incremental: IncrementalHotIn,
        config: Optional[IngestConfig] = None,
        metrics: Optional[Any] = None,
        tracer: Optional[Any] = None,
        hot_poi_cache: Optional[Any] = None,
        event_log: Optional[Any] = None,
    ) -> None:
        self.visits = visits_repository
        self.pois = poi_repository
        self.incremental = incremental
        self.config = config or IngestConfig(enabled=True)
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self.hot_poi_cache = hot_poi_cache
        #: Optional wide-event log: one canonical event per applied
        #: batch with the full cost account (size, regions, queue wait).
        self.event_log = event_log

        cfg = self.config
        self._queues = [
            _PartitionQueue(cfg.queue_capacity)
            for _ in range(cfg.num_partitions)
        ]
        #: region_id -> partition index; seeded round-robin in region
        #: key order, remapped by the rebalancer, extended on demand
        #: when auto-splits mint new regions.
        self._partition_of: Dict[int, int] = {
            region.region_id: i % cfg.num_partitions
            for i, region in enumerate(self.visits.table.regions)
        }
        #: Observation window for the rebalancer: events per region
        #: since the last check.
        self._region_counts: Dict[int, int] = {}
        #: region_id -> WAL sequence through which HotIn deltas are
        #: folded (the no-loss/no-double-count watermark).
        self._folded_seq: Dict[int, int] = {}
        #: Serializes applies per region so a rebalance mid-drain never
        #: makes a region dual-writer.
        self._region_locks: Dict[int, threading.Lock] = {}
        #: POI-repository refresh is cross-partition; one lock keeps the
        #: SQL tier single-writer.
        self._refresh_lock = threading.Lock()
        #: Monotonic instant of the last dirty-POI push (0 = never, so
        #: the first batch publishes immediately).
        self._last_refresh = 0.0
        self._lock = threading.Lock()

        #: Aggregation window pushed to the POI repository; the
        #: reconcile job re-anchors ``window_since`` as event time
        #: advances (None = all history).
        self.window_since: Optional[int] = None
        self.window_until: Optional[int] = None

        self._appliers: List[Optional[threading.Thread]] = [
            None
        ] * cfg.num_partitions
        self._running = False
        self._inflight = [0] * cfg.num_partitions
        self._crash_armed = [False] * cfg.num_partitions
        self._crashed = [False] * cfg.num_partitions

        # Counters mirrored into the metrics registry (kept locally too
        # so stats() works without one attached).
        self.submitted = 0
        self.applied = 0
        self.batches = 0
        self.backpressure_events = 0
        self.shed = 0
        #: Overload coupling (brownout ladder level 3+): while set, a
        #: full queue sheds immediately even under the ``block`` policy
        #: — producers must not pile up blocked threads while the query
        #: tier is fighting for capacity.
        self._shed_override = False
        self.apply_errors = 0
        self.recoveries = 0
        self.rebalances = 0
        #: Bounded history of rebalance decisions for the admin surface.
        self.rebalance_log: deque = deque(maxlen=32)

    # ---------------------------------------------------------- lifecycle

    def start(self) -> "StreamingIngestTier":
        with self._lock:
            if self._running:
                return self
            self._running = True
        for partition in range(self.config.num_partitions):
            self._spawn_applier(partition)
        return self

    def _spawn_applier(self, partition: int) -> None:
        thread = threading.Thread(
            target=self._applier_loop,
            args=(partition,),
            name="ingest-applier-%d" % partition,
            daemon=True,
        )
        self._appliers[partition] = thread
        self._crashed[partition] = False
        thread.start()

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop appliers; with ``drain`` (default) queued visits are
        applied first.  Returns whether everything drained."""
        drained = True
        if drain and self._running:
            drained = self.drain(timeout_s)
        with self._lock:
            self._running = False
        for thread in self._appliers:
            if thread is not None:
                thread.join(timeout=timeout_s)
        return drained

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Block until every queue is empty and no batch is in flight.

        Returns False on timeout or when a crashed applier leaves its
        partition undrainable (recover it first).
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            depths = [q.depth() for q in self._queues]
            busy = any(depths) or any(self._inflight)
            if not busy:
                # Publish any refresh-interval-coalesced hotness so a
                # successful drain means "applied AND query-visible".
                self._refresh_dirty_pois()
                return True
            for partition, depth in enumerate(depths):
                if (
                    self._crashed[partition]
                    and (depth or self._inflight[partition])
                ):
                    return False
            time.sleep(0.002)
        return False

    # ---------------------------------------------------------- producers

    def _route(self, visit: VisitStruct) -> Tuple[int, int]:
        """``(region_id, partition)`` for one visit under the current
        partition map; unseen regions (post-split daughters) are mapped
        to the shallowest queue."""
        row = self.visits.row_key(visit.user_id, visit.timestamp, visit.poi_id)
        region_id = self.visits.table.region_for_row(row).region_id
        with self._lock:
            partition = self._partition_of.get(region_id)
            if partition is None:
                depths = [q.depth() for q in self._queues]
                partition = depths.index(min(depths))
                self._partition_of[region_id] = partition
            self._region_counts[region_id] = (
                self._region_counts.get(region_id, 0) + 1
            )
        return region_id, partition

    def submit(self, visit: VisitStruct) -> int:
        """Enqueue one visit for streaming apply; returns its partition.

        Raises :class:`BackpressureError` when the partition's bounded
        queue stays full (immediately under ``shed``, after
        ``block_timeout_s`` under ``block``); the visit is then NOT
        enqueued and the producer owns the retry.
        """
        if not self._running:
            raise ValidationError(
                "ingest tier is not running (call start())"
            )
        _region_id, partition = self._route(visit)
        cfg = self.config
        block = cfg.backpressure == "block" and not self._shed_override
        try:
            waited = self._queues[partition].offer(
                visit, block=block, timeout_s=cfg.block_timeout_s
            )
        except BackpressureError:
            with self._lock:
                self.backpressure_events += 1
                if not block:
                    self.shed += 1
            self._emit_counter(
                "ingest.backpressure_events",
                labels={"policy": cfg.backpressure},
            )
            if not block:
                self._emit_counter("ingest.shed")
            raise
        if waited:
            with self._lock:
                self.backpressure_events += 1
            self._emit_counter(
                "ingest.backpressure_events", labels={"policy": "block"}
            )
        with self._lock:
            self.submitted += 1
        self._emit_counter("ingest.submitted")
        if self.metrics is not None:
            self.metrics.set_gauge(
                "ingest.queue_depth",
                self._queues[partition].depth(),
                labels={"partition": partition},
            )
        return partition

    def submit_many(self, visits: Iterable[VisitStruct]) -> int:
        count = 0
        for visit in visits:
            self.submit(visit)
            count += 1
        return count

    # ----------------------------------------------------------- appliers

    def _applier_loop(self, partition: int) -> None:
        threadreg.register_current_thread("ingest")
        queue = self._queues[partition]
        max_batch = self.config.max_batch
        while True:
            with self._lock:
                if not self._running:
                    break
            batch, queue_wait_s = queue.take_batch(max_batch, wait_s=0.05)
            if not batch:
                continue
            self._inflight[partition] = len(batch)
            try:
                self._apply_batch(partition, batch, queue_wait_s)
            except _InjectedApplierCrash:
                self._crashed[partition] = True
                self._emit_counter("ingest.applier_crashes")
                self._inflight[partition] = 0
                return  # the thread dies; recover() resurrects it
            except Exception:
                with self._lock:
                    self.apply_errors += 1
                self._emit_counter("ingest.apply_errors")
            finally:
                if not self._crashed[partition]:
                    self._inflight[partition] = 0
        # Final sweep so stop(drain=True) never strands a tail batch.
        batch, queue_wait_s = queue.take_batch(max_batch, wait_s=0.0)
        while batch:
            self._inflight[partition] = len(batch)
            try:
                self._apply_batch(partition, batch, queue_wait_s)
            except Exception:
                with self._lock:
                    self.apply_errors += 1
            finally:
                self._inflight[partition] = 0
            batch, queue_wait_s = queue.take_batch(max_batch, wait_s=0.0)

    def _region_lock(self, region_id: int) -> threading.Lock:
        with self._lock:
            lock = self._region_locks.get(region_id)
            if lock is None:
                lock = self._region_locks[region_id] = threading.Lock()
            return lock

    def _apply_batch(
        self,
        partition: int,
        batch: Sequence[VisitStruct],
        queue_wait_s: float = 0.0,
    ) -> None:
        wall_start = time.perf_counter()
        span = self.tracer.span(
            "ingest.batch", partition=partition, size=len(batch)
        )
        error: Optional[str] = None
        regions_touched = 0
        try:
            # 1. Group commit per region: one WAL sync + one memstore
            #    merge each.  Routing happens at apply time, so a region
            #    split between submit and apply still lands correctly.
            table = self.visits.table
            groups: Dict[int, List] = {}
            regions: Dict[int, Any] = {}
            for visit in batch:
                cell = self.visits.visit_cell(visit)
                region = table.region_for_row(cell.row)
                groups.setdefault(region.region_id, []).append(cell)
                regions[region.region_id] = region
            seq_ranges: Dict[int, Tuple[int, int]] = {}
            for region_id, cells in groups.items():
                with self._region_lock(region_id):
                    seq_ranges[region_id] = regions[region_id].put_batch(
                        cells
                    )
                self._emit_counter("ingest.wal_group_commits")

            if self._crash_armed[partition]:
                self._crash_armed[partition] = False
                raise _InjectedApplierCrash(
                    "injected applier crash on partition %d" % partition
                )

            # 2. Fold deltas into the incremental HotIn state.
            self.incremental.fold(
                (v.poi_id, v.timestamp, v.grade) for v in batch
            )

            # 3. Advance fold watermarks — recovery replays only past
            #    these, so a fold is never double-counted.
            with self._lock:
                for region_id, (_first, last) in seq_ranges.items():
                    if last > self._folded_seq.get(region_id, 0):
                        self._folded_seq[region_id] = last

            # 4. Push dirty-POI hotness to the SQL repository, coalesced
            #    to one indexed-update burst per refresh interval, and
            #    invalidate cached non-personalized answers.
            self._maybe_refresh_dirty_pois()

            with self._lock:
                self.applied += len(batch)
                self.batches += 1
            self._emit_counter("ingest.applied", len(batch))
            self._emit_counter("ingest.batches")
            if self.metrics is not None:
                self.metrics.record_latency(
                    "ingest.batch_wall",
                    (time.perf_counter() - wall_start) * 1e3,
                    labels={"partition": partition},
                    exemplar=span.trace_id,
                )
                self.metrics.set_gauge(
                    "ingest.watermark", self.incremental.watermark
                )
            regions_touched = len(groups)
            span.tag("regions", regions_touched)
        except _InjectedApplierCrash:
            error = "applier_crash"
            span.tag("error", error)
            raise
        except Exception as exc:
            error = type(exc).__name__
            span.tag("error", error)
            raise
        finally:
            span.finish()
            if self.event_log is not None:
                self.event_log.emit(
                    {
                        "type": "ingest.batch",
                        "trace_id": span.trace_id,
                        "partition": partition,
                        "size": len(batch),
                        "regions": regions_touched,
                        "queue_wait_ms": queue_wait_s * 1e3,
                        "wall_ms": (time.perf_counter() - wall_start) * 1e3,
                        "watermark": self.incremental.watermark,
                        "error": error,
                    }
                )

    def _maybe_refresh_dirty_pois(self) -> int:
        """Interval-gated :meth:`_refresh_dirty_pois`.

        Dirty sets accumulate in the incremental state between pushes,
        so coalescing trades bounded hotness staleness
        (``refresh_interval_s`` wall seconds) for taking the indexed
        SQL-update path once per interval instead of once per batch.
        """
        interval = self.config.refresh_interval_s
        if interval > 0:
            if time.monotonic() - self._last_refresh < interval:
                return 0
        return self._refresh_dirty_pois()

    def freshness_age_s(self) -> float:
        """How stale query-visible hotness is, in wall seconds.

        0.0 when every folded delta has been published to the SQL tier
        (nothing dirty, nothing queued, nothing in flight) — an idle
        system is perfectly fresh, not infinitely stale.  Otherwise the
        age of the last dirty-POI push, which is exactly how long the
        oldest unpublished delta has been waiting.  Scraped each
        telemetry tick into ``ingest.freshness_age_s`` — the series the
        ingest-freshness SLO thresholds.
        """
        pending = self.incremental.dirty_count
        if not pending:
            pending = sum(q.depth() for q in self._queues) + sum(
                self._inflight
            )
        if not pending:
            return 0.0
        with self._refresh_lock:
            last = self._last_refresh
        if last == 0.0:
            return 0.0  # nothing ever published yet; age is undefined
        return max(0.0, time.monotonic() - last)

    def _refresh_dirty_pois(self) -> int:
        with self._refresh_lock:
            self._last_refresh = time.monotonic()
            updated = self.incremental.refresh_pois(
                self.pois,
                since=self.window_since,
                until=self.window_until,
                only_dirty=True,
            )
            if updated:
                self._emit_counter("ingest.hotin_refreshes", updated)
                if self.hot_poi_cache is not None:
                    self.hot_poi_cache.bump_epoch()
        return updated

    # --------------------------------------------------- crash / recovery

    def inject_crash(self, partition: int) -> None:
        """Testing hook: the partition's next batch group-commits
        durably, then the applier dies before folding HotIn deltas —
        the exact window WAL-replay recovery must close."""
        self._crash_armed[partition] = True

    def crashed_partitions(self) -> List[int]:
        return [i for i, dead in enumerate(self._crashed) if dead]

    def recover(self, partition: int) -> int:
        """Resurrect a crashed applier, replaying un-folded WAL suffixes.

        For every region currently mapped to ``partition``, WAL records
        past the region's fold watermark are decoded back into visit
        deltas and folded; the watermark then advances to the replayed
        tail.  Records at or below the watermark are skipped, so deltas
        land exactly once.  Returns the number of deltas replayed.
        """
        if not self._crashed[partition]:
            raise ValidationError(
                "partition %d has not crashed" % partition
            )
        with self._lock:
            region_ids = [
                rid
                for rid, p in self._partition_of.items()
                if p == partition
            ]
        replayed = 0
        decode_key = VisitsRepository.decode_key
        decode_grade = VisitsRepository.decode_grade
        for region in self.visits.table.regions:
            if region.region_id not in region_ids:
                continue
            watermark = self._folded_seq.get(region.region_id, 0)
            deltas = []
            last_seq = watermark
            with self._region_lock(region.region_id):
                for record in region.wal.records_after(watermark):
                    _user_id, timestamp, poi_id = decode_key(
                        record.cell.row
                    )
                    deltas.append(
                        (
                            poi_id,
                            timestamp,
                            decode_grade(record.cell.value),
                        )
                    )
                    last_seq = record.sequence
            if deltas:
                self.incremental.fold(deltas)
                replayed += len(deltas)
                with self._lock:
                    if last_seq > self._folded_seq.get(
                        region.region_id, 0
                    ):
                        self._folded_seq[region.region_id] = last_seq
        if replayed:
            self._refresh_dirty_pois()
        with self._lock:
            self.recoveries += 1
        self._emit_counter("ingest.recoveries")
        if self._running:
            self._spawn_applier(partition)
        else:
            self._crashed[partition] = False
        return replayed

    def compact_wals(self) -> int:
        """Drop WAL records at or below each region's fold watermark.

        A folded record's cell is in the memstore/store files and its
        HotIn delta is in the incremental state — nothing ever replays
        it again.  Called after each reconcile pass, this bounds WAL
        memory to the un-folded suffix.  Returns records dropped.
        """
        dropped = 0
        with self._lock:
            watermarks = dict(self._folded_seq)
        for region in self.visits.table.regions:
            watermark = watermarks.get(region.region_id, 0)
            if not watermark:
                continue
            with self._region_lock(region.region_id):
                dropped += region.wal.truncate_to(watermark)
        return dropped

    # ---------------------------------------------------------- rebalance

    def maybe_rebalance(self, force: bool = False) -> Optional[Dict]:
        """Load-aware repartition check over the observation window.

        Moves the hottest region off a hot-spotted partition when that
        partition's event share exceeds ``REBALANCE_HOT_RATIO`` times
        the mean (and it owns more than one region).  Safe mid-stream:
        per-region apply locks keep each region single-writer while its
        queued remainder drains from the old partition, and HotIn folds
        are commutative, so no barrier or fence is needed.  Returns the
        move record, or None when balanced.  The observation window
        resets after every check.
        """
        with self._lock:
            counts = dict(self._region_counts)
            self._region_counts = {}
            partition_of = dict(self._partition_of)
        total = sum(counts.values())
        if total < self.config.rebalance_min_events and not force:
            return None
        num = self.config.num_partitions
        if num < 2:
            return None
        loads = [0] * num
        for region_id, count in counts.items():
            loads[partition_of.get(region_id, 0)] += count
        mean = total / num
        hot = max(range(num), key=lambda p: loads[p])
        if mean <= 0:
            return None
        if not force and loads[hot] < REBALANCE_HOT_RATIO * mean:
            return None
        hot_regions = [
            (counts.get(rid, 0), rid)
            for rid, p in partition_of.items()
            if p == hot
        ]
        if len(hot_regions) < 2:
            return None  # cannot split a single-region partition
        cool = min(
            (p for p in range(num) if p != hot), key=lambda p: loads[p]
        )
        _count, moved = max(hot_regions)
        with self._lock:
            self._partition_of[moved] = cool
            self.rebalances += 1
        event = {
            "moved_region": moved,
            "from_partition": hot,
            "to_partition": cool,
            "hot_load": loads[hot],
            "mean_load": mean,
            "window_events": total,
        }
        self.rebalance_log.append(event)
        self._emit_counter("ingest.rebalances")
        return event

    # ------------------------------------------------------------- status

    def _emit_counter(
        self, name: str, amount: int = 1, labels: Optional[Dict] = None
    ) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount, labels=labels)

    def set_shed_override(self, active: bool) -> None:
        """Couple ingest to the overload signal (brownout level 3+).

        While active, a full partition queue sheds immediately —
        blocking-policy producers get the shed behaviour instead of a
        bounded wait — so ingest pressure cannot hold threads hostage
        while the serving tier is overloaded.  Level-triggered: callers
        flip it on when the ladder escalates and off when it recovers.
        """
        if self._shed_override == active:
            return
        self._shed_override = active
        self._emit_counter(
            "ingest.shed_override",
            labels={"active": str(active).lower()},
        )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            partition_of = dict(self._partition_of)
            counters = {
                "submitted": self.submitted,
                "applied": self.applied,
                "batches": self.batches,
                "backpressure_events": self.backpressure_events,
                "shed": self.shed,
                "apply_errors": self.apply_errors,
                "recoveries": self.recoveries,
                "rebalances": self.rebalances,
            }
        partitions = []
        for i, queue in enumerate(self._queues):
            partitions.append(
                {
                    "partition": i,
                    "depth": queue.depth(),
                    "capacity": queue.capacity,
                    "regions": sorted(
                        rid for rid, p in partition_of.items() if p == i
                    ),
                    "inflight": self._inflight[i],
                    "crashed": self._crashed[i],
                }
            )
        return {
            "running": self._running,
            "config": {
                "num_partitions": self.config.num_partitions,
                "queue_capacity": self.config.queue_capacity,
                "max_batch": self.config.max_batch,
                "backpressure": self.config.backpressure,
            },
            "shed_override": self._shed_override,
            "counters": counters,
            "partitions": partitions,
            "rebalance_log": list(self.rebalance_log),
            "hotin": self.incremental.stats(),
            "window": [self.window_since, self.window_until],
        }
