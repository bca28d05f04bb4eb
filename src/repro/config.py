"""Platform-wide configuration objects.

The paper deploys MoDisSENSE on an OpenStack cluster of dual-core VMs and
tunes the number of HBase nodes (4, 8, 16), the number of regions per
table, and the periodic-job windows.  :class:`PlatformConfig` gathers the
same knobs in one validated place so experiments can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import ConfigError

#: Bounding box used for the paper's synthetic dataset: POIs "located in
#: Greece" collected from OpenStreetMap (Section 3.1).
GREECE_BBOX = (34.8, 19.3, 41.8, 29.6)  # (min_lat, min_lon, max_lat, max_lon)

#: Paper Section 3.1 workload constants.
PAPER_NUM_POIS = 8500
PAPER_NUM_USERS = 150_000
PAPER_VISITS_MEAN = 170.0
PAPER_VISITS_STD = 101.0
PAPER_CLUSTER_SIZES = (4, 8, 16)


@dataclass
class ClusterConfig:
    """Shape and cost model of the simulated HBase/Hadoop cluster.

    The cost-model constants are calibrated so that the 16-node cluster
    answers a 5000-friend personalized query in under a second, matching
    the paper's Figure 2 (see ``repro/cluster/simulation.py``).
    """

    num_nodes: int = 16
    cores_per_node: int = 2
    regions_per_table: int = 32
    #: Simulated one-way RPC latency between client and a region server.
    rpc_latency_ms: float = 1.2
    #: Simulated per-visit-record processing cost inside a coprocessor.
    #: Calibrated so 5000 friends x ~170 visits on 16 dual-core nodes
    #: lands just under 1 s (paper Figure 2's headline).
    cost_per_record_us: float = 17.5
    #: Simulated fixed cost of starting a coprocessor invocation.
    coprocessor_setup_ms: float = 0.35
    #: Simulated per-result merge cost at the web-server tier.
    merge_cost_per_item_us: float = 1.5
    #: Simulated client-side cost of routing one key (friend) to its
    #: owning region before fan-out.  A bisect over region start keys is
    #: sub-microsecond; the term keeps routed-query latencies honest
    #: about the work the client tier now performs.
    route_cost_per_key_us: float = 0.3

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1, got %r" % self.num_nodes)
        if self.cores_per_node < 1:
            raise ConfigError(
                "cores_per_node must be >= 1, got %r" % self.cores_per_node
            )
        if self.regions_per_table < 1:
            raise ConfigError(
                "regions_per_table must be >= 1, got %r" % self.regions_per_table
            )

    @property
    def total_cores(self) -> int:
        """Total number of simulated worker cores in the cluster."""
        return self.num_nodes * self.cores_per_node


@dataclass
class SentimentConfig:
    """Knobs of the Naive Bayes sentiment pipeline (paper Section 3.2)."""

    use_tf: bool = True
    use_bigrams: bool = True
    use_bns: bool = True
    min_occurrences: int = 3
    #: Fraction of features retained when BNS feature selection is on.
    bns_keep_fraction: float = 0.4
    stem: bool = True
    remove_stopwords: bool = True
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.min_occurrences < 0:
            raise ConfigError("min_occurrences must be >= 0")
        if not 0.0 < self.bns_keep_fraction <= 1.0:
            raise ConfigError("bns_keep_fraction must be in (0, 1]")

    @classmethod
    def baseline(cls) -> "SentimentConfig":
        """The paper's *baseline training process*: stemming, lowercase and
        stopword removal only — none of the four optimizations."""
        return cls(
            use_tf=False,
            use_bigrams=False,
            use_bns=False,
            min_occurrences=0,
        )

    @classmethod
    def optimized(cls) -> "SentimentConfig":
        """The paper's tuned configuration (tf, 2-grams, BNS, pruning)."""
        return cls()


@dataclass
class JobsConfig:
    """Periods of the platform's batch jobs, in simulated seconds."""

    data_collection_period_s: float = 900.0
    hotin_update_period_s: float = 3600.0
    event_detection_period_s: float = 3600.0
    #: Aggregation window *T* for hotness/interest (paper Section 2.2).
    hotin_window_s: float = 7 * 24 * 3600.0
    #: DBSCAN parameters for event detection.
    dbscan_eps_m: float = 60.0
    dbscan_min_points: int = 12
    #: GPS points closer than this to a known POI are filtered before
    #: clustering (paper Section 2.2, Event Detection Module).
    known_poi_filter_radius_m: float = 80.0

    def __post_init__(self) -> None:
        if self.dbscan_eps_m <= 0:
            raise ConfigError("dbscan_eps_m must be positive")
        if self.dbscan_min_points < 1:
            raise ConfigError("dbscan_min_points must be >= 1")


@dataclass
class TracingConfig:
    """Knobs of the query-tracing layer (``repro.core.tracing``).

    Tracing is **on by default**: spans only observe (results are
    identical with tracing on or off), per-query overhead is a handful
    of lock-protected appends, and both trace buffers are bounded ring
    buffers — the CI overhead smoke job enforces <10% end-to-end cost.
    Set ``enabled=False`` to hand out no-op spans everywhere.
    """

    enabled: bool = True
    #: Ring-buffer capacity for assembled span trees (``admin_traces``).
    max_traces: int = 128
    #: Root spans at or above this latency (simulated ``latency_ms`` tag
    #: when present, wall duration otherwise) are also captured in the
    #: slow-query log.  ``None`` disables the log.
    slow_query_threshold_ms: float = 250.0
    #: Slow-query ring-buffer capacity.
    slow_log_size: int = 32

    def __post_init__(self) -> None:
        if self.max_traces < 1:
            raise ConfigError("max_traces must be >= 1")
        if self.slow_log_size < 1:
            raise ConfigError("slow_log_size must be >= 1")
        if (
            self.slow_query_threshold_ms is not None
            and self.slow_query_threshold_ms < 0
        ):
            raise ConfigError("slow_query_threshold_ms cannot be negative")


@dataclass
class FaultsConfig:
    """Fault injection + fan-out resilience knobs.

    Two halves live here on purpose.  The *injection* half (rates, hang
    latency, lost-region fraction) only acts when ``enabled`` is True
    and a :class:`~repro.core.faults.FaultInjector` is attached to the
    cluster — with it off, query results are byte-identical to a build
    without the fault layer.  The *resilience* half (retries, backoff,
    deadline, hedging, circuit breaker) configures the query fan-out's
    recovery machinery, which also protects against real coprocessor
    exceptions, injector or not.
    """

    #: Arms the injector.  Off by default: the clean path never draws.
    enabled: bool = False
    #: Seed for every injection decision; decisions are derived from
    #: ``(seed, fanout-epoch, region, attempt)`` so they are repeatable
    #: however concurrent callers interleave.
    seed: int = 1337
    #: Per-attempt probability a region invocation raises.
    region_error_rate: float = 0.0
    #: Per-attempt probability a region invocation straggles.
    region_hang_rate: float = 0.0
    #: Simulated added latency of one injected hang.
    hang_ms: float = 400.0
    #: Per-attempt probability a region returns a corrupt partial.
    corrupt_rate: float = 0.0
    #: Fraction of a failed node's regions whose data stays unavailable
    #: until the node recovers (models losing the replica too).
    lost_region_fraction: float = 0.0
    #: Injected stale-location errors per moved region after a node
    #: failure (the client's META cache pointing at the dead server).
    stale_location_errors: int = 1

    # ---- resilience knobs (honored with or without an injector) ----
    #: Re-invocations of a failed region before hedging/degrading.
    max_retries: int = 2
    #: First retry's simulated backoff; grows by ``retry_backoff_multiplier``.
    retry_backoff_ms: float = 2.0
    retry_backoff_multiplier: float = 2.0
    #: Upper bound of the deterministic jitter added to each backoff.
    retry_jitter_ms: float = 1.0
    #: Whole-query deadline from which each region's recovery budget is
    #: derived; retries/hedges stop once a region's accumulated extra
    #: (simulated) spend crosses it.  The first attempt always runs, so
    #: zero-fault queries are never cut short.  ``None`` disables it.
    query_deadline_ms: Optional[float] = 2000.0
    #: When True, a fan-out whose simulated latency exceeds the deadline
    #: raises :class:`~repro.errors.QueryDeadlineExceeded` instead of
    #: degrading gracefully.
    strict_deadline: bool = False
    #: Re-execute a failed/straggling region once against a surviving
    #: node before declaring it missing.
    hedge_enabled: bool = True
    #: Consecutive failures that open a node's circuit breaker.
    breaker_threshold: int = 3
    #: Fan-outs a breaker stays open before admitting a probe request.
    breaker_cooldown_fanouts: int = 4

    def __post_init__(self) -> None:
        for name in ("region_error_rate", "region_hang_rate", "corrupt_rate",
                     "lost_region_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError("%s must be in [0, 1], got %r" % (name, value))
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0 or self.retry_jitter_ms < 0:
            raise ConfigError("backoff/jitter cannot be negative")
        if self.retry_backoff_multiplier < 1.0:
            raise ConfigError("retry_backoff_multiplier must be >= 1")
        if self.hang_ms < 0:
            raise ConfigError("hang_ms cannot be negative")
        if self.query_deadline_ms is not None and self.query_deadline_ms <= 0:
            raise ConfigError("query_deadline_ms must be positive or None")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_fanouts < 1:
            raise ConfigError("breaker_cooldown_fanouts must be >= 1")
        if self.stale_location_errors < 0:
            raise ConfigError("stale_location_errors cannot be negative")

    @classmethod
    def chaos(cls, seed: int = 1337, **overrides) -> "FaultsConfig":
        """An armed injector with moderate default rates — the starting
        point for chaos tests and the ``chaos-smoke`` CI job."""
        defaults = dict(
            enabled=True,
            seed=seed,
            region_error_rate=0.1,
            region_hang_rate=0.05,
            lost_region_fraction=0.25,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class CacheConfig:
    """Knobs of the concurrent-query caching layer.

    Caching is **off by default**: with ``enabled=False`` no cache object
    is ever constructed and the query path is byte-identical to a build
    without the cache layer.  With it on, answers are still guaranteed
    byte-identical — the scan cache stamps every entry with the owning
    region's data sequence id (any write/flush/compaction makes the
    entry stale), and the hot-POI cache revalidates against the POI
    repository's version plus an explicit HotIn epoch.

    ``coalesce`` governs single-flight deduplication of identical
    in-flight personalized queries.  It defaults on independently of
    ``enabled`` because coalescing stores nothing: concurrent identical
    callers simply share the one fan-out's result, so there is no
    staleness to manage.
    """

    #: Master switch for the region scan cache + hot-POI score cache.
    enabled: bool = False
    #: Deduplicate identical in-flight personalized queries.
    coalesce: bool = True
    #: LRU capacity of the per-region friend-partition scan cache
    #: (one entry per (region, friend, time-window)); also the row
    #: bound of its POI attribute table.
    scan_cache_max_entries: int = 65536
    #: Wall-clock TTL for scan-cache entries; ``None`` disables and
    #: leaves invalidation purely seqid-driven.
    scan_cache_ttl_s: Optional[float] = None
    #: LRU capacity of the hot-POI (non-personalized) score cache.
    hot_poi_max_entries: int = 256
    #: Period of the scheduler's cache-maintenance sweep job, which
    #: drops TTL-expired and seqid-stale entries (simulated seconds).
    sweep_period_s: float = 60.0

    def __post_init__(self) -> None:
        if self.scan_cache_max_entries < 1:
            raise ConfigError("scan_cache_max_entries must be >= 1")
        if self.hot_poi_max_entries < 1:
            raise ConfigError("hot_poi_max_entries must be >= 1")
        if self.scan_cache_ttl_s is not None and self.scan_cache_ttl_s <= 0:
            raise ConfigError("scan_cache_ttl_s must be positive or None")
        if self.sweep_period_s <= 0:
            raise ConfigError("sweep_period_s must be positive")


@dataclass
class TopKConfig:
    """Knobs of threshold-algorithm top-k early termination
    (:mod:`repro.core.modules.topk`).

    Off by default: with ``enabled=False`` the personalized query path
    is byte-identical to a build without the top-k module — regions ship
    complete partials and the web tier ranks at the end.  With it on,
    answers are *still* byte-identical (the differential oracle suite
    pins this): regions emit score-sorted batches with a monotone upper
    bound on the unemitted rest, and the merger cancels region emission
    it can prove irrelevant, skipping the per-POI attribute decodes and
    partial shipping the exhaustive path pays for.
    """

    #: Master switch for top-k early termination on personalized search.
    enabled: bool = False
    #: Sorted-access items a region emits per merger round.  Smaller
    #: batches tighten the threshold faster (more pruning) at the cost
    #: of more merge rounds.
    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class IngestConfig:
    """Knobs of the streaming ingest tier (``repro.core.ingest``).

    Off by default: with ``enabled=False`` no tier is constructed and
    every write takes the seed single-put path.  With it on, visits
    submitted through :meth:`MoDisSENSE.ingest_visit` flow through
    bounded per-partition queues into applier workers that group-commit
    batches through the WAL and fold HotIn aggregates incrementally —
    the batch MapReduce job is then only a periodic reconciliation pass.
    """

    #: Master switch for the streaming ingest tier.
    enabled: bool = False
    #: Applier workers / queue partitions.  Regions are mapped onto
    #: partitions (many-to-one) and remapped by the load-aware
    #: rebalancer; each region is drained by exactly one applier at a
    #: time, keeping regions single-writer.
    num_partitions: int = 4
    #: Bounded capacity of each partition queue, in visits.
    queue_capacity: int = 4096
    #: Max visits one applier batch group-commits (one WAL sync per
    #: region per batch).
    max_batch: int = 256
    #: ``"block"``: a producer hitting a full queue waits up to
    #: ``block_timeout_s`` then fails typed; ``"shed"``: it fails typed
    #: immediately (load shedding).  Either way the visit was never
    #: enqueued, so nothing is half-applied.
    backpressure: str = "block"
    #: Blocking producers give up (BackpressureError) after this long.
    block_timeout_s: float = 5.0
    #: Arms the load-aware repartitioner.
    rebalance_enabled: bool = True
    #: A partition is hot when its share of the observation window's
    #: events exceeds ``rebalance_hot_ratio`` times the mean share.
    rebalance_hot_ratio: float = 2.0
    #: Rebalance checks are skipped until the observation window has
    #: seen at least this many events (avoids thrashing on noise).
    rebalance_min_events: int = 512
    #: Period of the scheduler's ``ingest_rebalance`` job (sim seconds).
    rebalance_period_s: float = 60.0
    #: Period of the scheduler's ``hotin_reconcile`` verify-and-repair
    #: job (sim seconds) — the demoted batch MapReduce pass.
    reconcile_period_s: float = 3600.0
    #: Incremental HotIn cells older than the reconcile window's start
    #: minus this slack are pruned after each reconcile (seconds of
    #: event time); 0 disables pruning.
    prune_slack_s: float = 24 * 3600.0
    #: Dirty-POI hotness pushes into the SQL repository are coalesced
    #: to at most one per this many wall seconds (0 = push every
    #: batch).  Bounds query-visible hotness staleness while keeping
    #: appliers off the indexed-update path on every batch; a drain or
    #: recovery always flushes regardless.
    refresh_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.backpressure not in ("block", "shed"):
            raise ConfigError(
                "backpressure must be 'block' or 'shed', got %r"
                % self.backpressure
            )
        if self.block_timeout_s <= 0:
            raise ConfigError("block_timeout_s must be positive")
        if self.rebalance_hot_ratio < 1.0:
            raise ConfigError("rebalance_hot_ratio must be >= 1")
        if self.refresh_interval_s < 0:
            raise ConfigError("refresh_interval_s must be >= 0")
        if self.rebalance_min_events < 1:
            raise ConfigError("rebalance_min_events must be >= 1")
        if self.rebalance_period_s <= 0 or self.reconcile_period_s <= 0:
            raise ConfigError("ingest job periods must be positive")
        if self.prune_slack_s < 0:
            raise ConfigError("prune_slack_s cannot be negative")


@dataclass
class SupervisorConfig:
    """Knobs of the self-healing cluster supervisor
    (``repro.core.supervisor``).

    Off by default: with ``enabled=False`` no supervisor is constructed,
    region WALs stay plain per-region logs, and failure handling is
    exactly the manual ``fail_node``/``recover_node`` story.  With it
    on, every node carries a heartbeat lease driven by the platform
    scheduler; a node that misses heartbeats past ``lease_timeout_s``
    is declared dead and recovered HBase-style — its server WAL is
    split by region, regions are reassigned to the least-loaded
    survivors, and each region's committed-but-unflushed WAL suffix is
    replayed into a fresh memstore before it reopens.  A scheduled
    scrubber verifies store-file block checksums and WAL tails,
    repairing corrupt blocks from the WAL archive or quarantining them.
    """

    enabled: bool = False
    #: Simulated seconds between heartbeat-lease ticks.
    heartbeat_period_s: float = 1.0
    #: A node whose lease is older than this (simulated seconds) is
    #: declared dead and recovered.  Detection MTTR is bounded by
    #: ``lease_timeout_s + heartbeat_period_s`` when time advances in
    #: sub-lease steps; the recovery-smoke CI gate enforces MTTR at
    #: most twice this value.
    lease_timeout_s: float = 3.0
    #: Simulated seconds between storage-scrub passes.
    scrub_period_s: float = 60.0
    #: Truncated WAL records kept per region as the scrubber's repair
    #: source (flushed cells live in store files; their log records move
    #: to this bounded archive instead of vanishing).
    wal_archive_capacity: int = 65536

    def __post_init__(self) -> None:
        if self.heartbeat_period_s <= 0:
            raise ConfigError("heartbeat_period_s must be positive")
        if self.lease_timeout_s <= 0:
            raise ConfigError("lease_timeout_s must be positive")
        if self.lease_timeout_s < self.heartbeat_period_s:
            raise ConfigError(
                "lease_timeout_s must be >= heartbeat_period_s "
                "(a lease shorter than one heartbeat always expires)"
            )
        if self.scrub_period_s <= 0:
            raise ConfigError("scrub_period_s must be positive")
        if self.wal_archive_capacity < 0:
            raise ConfigError("wal_archive_capacity cannot be negative")


@dataclass
class AdmissionConfig:
    """Knobs of the overload-protection layer (``repro.core.admission``).

    **Off by default**: with ``enabled=False`` no controller is
    constructed and every request path is byte-identical to a build
    without the layer.  With it on but un-triggered (no overload), the
    only added work per request is a ticket acquire/release — answers
    stay byte-identical; the ``overload-smoke`` CI job gates the
    overhead at ≤10%.

    Four coupled mechanisms: a gradient/AIMD concurrency limiter per
    priority class (interactive > admin > background), per-client
    token-bucket rate limits at the REST boundary, a global retry
    budget gating the fan-out's retry/hedge paths, and a brownout
    ladder that degrades (stale cache answers, shrunk scans, paused
    background jobs, ingest shed) before it rejects.
    """

    #: Master switch; off constructs nothing.
    enabled: bool = False

    # ---- adaptive concurrency limiter (per priority class) ----
    #: Starting concurrency limit of each class's limiter.
    initial_limit: int = 32
    min_limit: int = 2
    max_limit: int = 256
    #: Share of the interactive limit the admin / background classes
    #: start from (each class runs its own AIMD loop afterwards).
    admin_weight: float = 0.5
    background_weight: float = 0.25
    #: A window's median latency beyond ``tolerance x baseline`` is
    #: treated as congestion: multiplicative decrease.  At or below it,
    #: additive increase.
    latency_tolerance: float = 2.0
    decrease_factor: float = 0.7
    increase_step: float = 1.0
    #: Completions per AIMD adjustment window.
    sample_window: int = 16
    #: Fixed uncongested-latency baseline (wall ms).  None learns it
    #: online as the smallest windowed median seen (with a slow upward
    #: drift so regime changes are eventually adopted).
    baseline_latency_ms: Optional[float] = None

    # ---- per-client token buckets (REST boundary) ----
    #: Sustained requests/second allowed per ``client_id``; requests
    #: without a client id skip the bucket (the limiter still applies).
    client_rate: float = 200.0
    client_burst: float = 400.0
    #: LRU-bounded number of per-client buckets kept.
    max_clients: int = 1024

    # ---- global retry budget (fan-out retries + hedges) ----
    #: Retries+hedges allowed as a fraction of recent region requests.
    retry_budget_ratio: float = 0.1
    #: Sliding window the ratio is measured over (wall seconds).
    retry_budget_window_s: float = 10.0
    #: Floor so cold-start / low-traffic retries still work.
    retry_budget_min_tokens: int = 5

    # ---- brownout ladder ----
    #: Ladder evaluation period (simulated seconds; driven by the
    #: platform scheduler's ``admission_tick`` job).
    tick_period_s: float = 1.0
    #: A tick is "overloaded" when the window's rejection rate exceeds
    #: this, or the interactive latency signal exceeds
    #: ``brownout_latency_factor x baseline``.
    brownout_reject_rate: float = 0.05
    brownout_latency_factor: float = 3.0
    #: Consecutive overloaded ticks before escalating one level, and
    #: calm ticks before recovering one level (hysteresis).
    escalate_ticks: int = 2
    recover_ticks: int = 3
    #: Scan shaping applied at the SHRINK level and above: cap each
    #: region's shipped partial list and the query's k.
    brownout_per_region_limit: int = 64
    brownout_max_k: int = 5

    def __post_init__(self) -> None:
        if self.min_limit < 1:
            raise ConfigError("min_limit must be >= 1")
        if not self.min_limit <= self.initial_limit <= self.max_limit:
            raise ConfigError(
                "need min_limit <= initial_limit <= max_limit, got %r/%r/%r"
                % (self.min_limit, self.initial_limit, self.max_limit)
            )
        for name in ("admin_weight", "background_weight"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError("%s must be in (0, 1]" % name)
        if self.latency_tolerance < 1.0:
            raise ConfigError("latency_tolerance must be >= 1")
        if not 0.0 < self.decrease_factor < 1.0:
            raise ConfigError("decrease_factor must be in (0, 1)")
        if self.increase_step <= 0:
            raise ConfigError("increase_step must be positive")
        if self.sample_window < 1:
            raise ConfigError("sample_window must be >= 1")
        if (
            self.baseline_latency_ms is not None
            and self.baseline_latency_ms <= 0
        ):
            raise ConfigError("baseline_latency_ms must be positive or None")
        if self.client_rate <= 0 or self.client_burst <= 0:
            raise ConfigError("client_rate/client_burst must be positive")
        if self.max_clients < 1:
            raise ConfigError("max_clients must be >= 1")
        if not 0.0 < self.retry_budget_ratio <= 1.0:
            raise ConfigError("retry_budget_ratio must be in (0, 1]")
        if self.retry_budget_window_s <= 0:
            raise ConfigError("retry_budget_window_s must be positive")
        if self.retry_budget_min_tokens < 0:
            raise ConfigError("retry_budget_min_tokens cannot be negative")
        if self.tick_period_s <= 0:
            raise ConfigError("tick_period_s must be positive")
        if not 0.0 < self.brownout_reject_rate < 1.0:
            raise ConfigError("brownout_reject_rate must be in (0, 1)")
        if self.brownout_latency_factor < 1.0:
            raise ConfigError("brownout_latency_factor must be >= 1")
        if self.escalate_ticks < 1 or self.recover_ticks < 1:
            raise ConfigError("escalate/recover tick counts must be >= 1")
        if self.brownout_per_region_limit < 1:
            raise ConfigError("brownout_per_region_limit must be >= 1")
        if self.brownout_max_k < 1:
            raise ConfigError("brownout_max_k must be >= 1")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Evaluated by :class:`repro.core.telemetry.slo.SLOEngine` as
    multi-window burn rates: the fast window catches sudden breakage
    (page), the slow window catches sustained slow bleed (ticket).

    Two kinds:

    - ``"ratio"``: ``bad_series`` / ``total_series`` counter deltas over
      each window (e.g. missing regions over used regions);
    - ``"threshold"``: the share of window scrape samples where
      ``series`` violates ``threshold`` (``direction="le"`` means
      healthy when the value stays at or below the bound, ``"ge"`` when
      at or above it).
    """

    name: str
    kind: str  # "ratio" | "threshold"
    #: Objective: the good fraction must stay >= target; the error
    #: budget is ``1 - target``.
    target: float
    description: str = ""
    # ---- ratio kind ----
    bad_series: Optional[str] = None
    total_series: Optional[str] = None
    # ---- threshold kind ----
    series: Optional[str] = None
    threshold: Optional[float] = None
    direction: str = "le"
    # ---- burn-rate windows (simulated seconds) ----
    fast_window_s: float = 60.0
    slow_window_s: float = 600.0
    critical_burn: float = 8.0
    warning_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "threshold"):
            raise ConfigError(
                "SLO kind must be 'ratio' or 'threshold', got %r" % self.kind
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigError("SLO target must be in (0, 1)")
        if self.kind == "ratio" and not (self.bad_series and self.total_series):
            raise ConfigError(
                "ratio SLO %r needs bad_series and total_series" % self.name
            )
        if self.kind == "threshold" and (
            self.series is None or self.threshold is None
        ):
            raise ConfigError(
                "threshold SLO %r needs series and threshold" % self.name
            )
        if self.direction not in ("le", "ge"):
            raise ConfigError("SLO direction must be 'le' or 'ge'")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ConfigError("SLO windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ConfigError("fast_window_s must not exceed slow_window_s")
        if self.critical_burn <= 0 or self.warning_burn <= 0:
            raise ConfigError("SLO burn thresholds must be positive")


def default_slos() -> Tuple[SLOSpec, ...]:
    """The platform's eight stock SLOs (tune or replace per deployment)."""
    return (
        SLOSpec(
            name="goodput",
            kind="ratio",
            bad_series="admission.rejected",
            total_series="admission.offered",
            target=0.80,
            description="Requests shed by admission control.  The 20% "
                        "budget is sized for brownout (shed-before-"
                        "collapse), not normal operation — any burn at "
                        "all means the platform is rejecting work.",
        ),
        SLOSpec(
            name="personalized_p99_latency",
            kind="threshold",
            series="query.personalized:p99",
            threshold=1000.0,
            direction="le",
            target=0.99,
            description="p99 personalized-query latency stays under 1 s "
                        "(the paper's Figure-2 headline).",
        ),
        SLOSpec(
            name="ingest_freshness",
            kind="threshold",
            series="ingest.freshness_age_s",
            threshold=0.5,
            direction="le",
            target=0.99,
            description="Applied-but-unpublished hotness is at most "
                        "0.5 s old (the PR-5 freshness SLO, now watched "
                        "in production rather than only in a bench).",
        ),
        SLOSpec(
            name="fanout_coverage",
            kind="ratio",
            bad_series="regions.missing",
            total_series="regions.used",
            target=0.999,
            description="Invoked regions that never answered within the "
                        "retry/hedge budget.",
        ),
        SLOSpec(
            name="degraded_query_rate",
            kind="ratio",
            bad_series="queries.degraded",
            total_series="queries.personalized",
            target=0.99,
            description="Personalized queries answered from partial "
                        "results.",
        ),
        SLOSpec(
            name="backpressure_shed_rate",
            kind="ratio",
            bad_series="ingest.shed",
            total_series="ingest.submitted",
            target=0.999,
            description="Ingest writes shed by full partition queues.",
        ),
        SLOSpec(
            name="storage_integrity",
            kind="ratio",
            bad_series="scrub.blocks_corrupt",
            total_series="scrub.blocks_scanned",
            target=0.999,
            description="Store-file blocks the scrubber found failing "
                        "their checksum (corrupt blocks are repaired "
                        "from the WAL or quarantined, never served).",
        ),
        SLOSpec(
            name="recovery_mttr",
            kind="threshold",
            series="supervisor.mttr_s",
            threshold=6.0,
            direction="le",
            target=0.99,
            description="Node-death detection + recovery time stays "
                        "within twice the default 3 s heartbeat lease "
                        "(no samples while nothing dies = healthy).",
        ),
    )


@dataclass
class TelemetryConfig:
    """Knobs of the telemetry pipeline (``repro.core.telemetry``).

    **On by default**: the pipeline only observes (scrapes, samples,
    events), so query answers are byte-identical with it on or off; the
    ``obs-smoke`` CI job gates measured overhead at ≤10%.  Set
    ``enabled=False`` to construct no hub at all.

    The scrape job fires on the platform scheduler's *simulated* clock
    with ``catch_up=False``: advancing a whole simulated day costs one
    scrape, not 86 400.
    """

    enabled: bool = True
    #: Simulated seconds between scheduler scrapes of the registry.
    scrape_period_s: float = 1.0
    #: Raw samples kept per series.
    base_samples: int = 720
    #: Rollup bucket widths, seconds (1s → 10s → 1m).
    rollup_resolutions: Tuple[float, ...] = (1.0, 10.0, 60.0)
    #: Buckets kept per rollup resolution per series.
    rollup_buckets: int = 360
    #: Wide-event ring capacity (routine events).
    event_capacity: int = 512
    #: Always-kept ring capacity (slow/degraded/errored/alerts).
    interesting_capacity: int = 256
    #: Keep 1-in-N routine events per type (1 = keep everything);
    #: interesting events always bypass sampling.
    event_sample_every: int = 4
    #: Arms the continuous sampling profiler.
    profiler_enabled: bool = True
    #: Wall seconds between profiler samples (0.02 = 50 Hz).
    profiler_interval_s: float = 0.02
    #: Stack frames walked per sampled thread.
    profiler_max_depth: int = 48
    #: Declarative SLOs the health engine evaluates.
    slos: Tuple[SLOSpec, ...] = field(default_factory=default_slos)

    def __post_init__(self) -> None:
        if self.scrape_period_s <= 0:
            raise ConfigError("scrape_period_s must be positive")
        if self.base_samples < 2:
            raise ConfigError("base_samples must be >= 2")
        if not self.rollup_resolutions or any(
            r <= 0 for r in self.rollup_resolutions
        ):
            raise ConfigError("rollup_resolutions must be positive")
        if self.rollup_buckets < 1:
            raise ConfigError("rollup_buckets must be >= 1")
        if self.event_capacity < 1 or self.interesting_capacity < 1:
            raise ConfigError("event capacities must be >= 1")
        if self.event_sample_every < 1:
            raise ConfigError("event_sample_every must be >= 1")
        if self.profiler_interval_s <= 0:
            raise ConfigError("profiler_interval_s must be positive")
        if self.profiler_max_depth < 1:
            raise ConfigError("profiler_max_depth must be >= 1")
        names = [spec.name for spec in self.slos]
        if len(names) != len(set(names)):
            raise ConfigError("SLO names must be unique")


@dataclass
class PlatformConfig:
    """Top-level configuration for a MoDisSENSE deployment."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    sentiment: SentimentConfig = field(default_factory=SentimentConfig)
    jobs: JobsConfig = field(default_factory=JobsConfig)
    tracing: TracingConfig = field(default_factory=TracingConfig)
    faults: FaultsConfig = field(default_factory=FaultsConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    topk: TopKConfig = field(default_factory=TopKConfig)
    #: Seed for all synthetic-data randomness; fixed for reproducibility.
    seed: int = 2015

    @classmethod
    def small(cls) -> "PlatformConfig":
        """A configuration sized for unit tests: 4 nodes, 8 regions."""
        return cls(cluster=ClusterConfig(num_nodes=4, regions_per_table=8))

    @classmethod
    def paper(cls, num_nodes: int = 16) -> "PlatformConfig":
        """The paper's experimental setup for a given cluster size."""
        if num_nodes not in PAPER_CLUSTER_SIZES:
            raise ConfigError(
                "paper cluster sizes are %s, got %r"
                % (PAPER_CLUSTER_SIZES, num_nodes)
            )
        return cls(cluster=ClusterConfig(num_nodes=num_nodes))
