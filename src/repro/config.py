"""Platform-wide configuration objects.

The paper deploys MoDisSENSE on an OpenStack cluster of dual-core VMs and
varies the number of HBase nodes (4, 8, 16), the friends per query, the
concurrent queries and the four classifier switches of Figure 4.
:class:`PlatformConfig` gathers the knobs a test, bench or example
actually varies; everything else is a module constant beside its use.

There are two profiles.  ``PlatformConfig()`` is the production stack —
scan/hot-POI caches, top-k early termination, streaming ingest, the
supervisor, admission control, tracing and telemetry all on — and is
what ``benchmarks/e2e`` measures (``small()``/``paper()`` only change
the cluster shape).  ``PlatformConfig.baseline()`` switches the first
five off: the paper's un-extended mechanism, used by the paper-figure
benches and as the reference arm of the per-feature differential tests.
Every extension returns answers byte-identical to the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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

    Calibrated so that the 16-node cluster answers a 5000-friend
    personalized query in under a second, matching the paper's Figure 2
    (the fixed coprocessor set-up and per-key routing costs are defaults
    of ``repro.cluster.simulation.CostModel``).
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
    #: Simulated per-result merge cost at the web-server tier.
    merge_cost_per_item_us: float = 1.5

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
    """DBSCAN parameters of the Event Detection job.  The job periods
    and the HotIn window are constants of ``repro.core.scheduler``."""

    dbscan_eps_m: float = 60.0
    dbscan_min_points: int = 12

    def __post_init__(self) -> None:
        if self.dbscan_eps_m <= 0:
            raise ConfigError("dbscan_eps_m must be positive")
        if self.dbscan_min_points < 1:
            raise ConfigError("dbscan_min_points must be >= 1")


@dataclass
class TracingConfig:
    """Knobs of the query-tracing layer (``repro.core.tracing``).

    Spans only observe (results are identical with tracing on or off),
    per-query overhead is a handful of lock-protected appends, and both
    trace buffers are bounded rings.  ``enabled=False`` hands out no-op
    spans everywhere.
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
    cluster — with it off (both profiles) the clean path never draws.
    The *resilience* half (retries, deadline, hedging, circuit breaker)
    configures the fan-out's recovery machinery, which also protects
    against real coprocessor exceptions; its backoff schedule and
    breaker cooldown are constants of ``repro.hbase.client``.
    """

    #: Arms the injector.
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

    def __post_init__(self) -> None:
        for name in ("region_error_rate", "region_hang_rate", "corrupt_rate",
                     "lost_region_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError("%s must be in [0, 1], got %r" % (name, value))
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.retry_jitter_ms < 0:
            raise ConfigError("retry_jitter_ms cannot be negative")
        if self.hang_ms < 0:
            raise ConfigError("hang_ms cannot be negative")
        if self.query_deadline_ms is not None and self.query_deadline_ms <= 0:
            raise ConfigError("query_deadline_ms must be positive or None")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.stale_location_errors < 0:
            raise ConfigError("stale_location_errors cannot be negative")


@dataclass
class CacheConfig:
    """Switches of the concurrent-query caching layer.

    ``enabled`` builds the region scan cache (entries stamped with the
    owning region's data sequence id, so any write/flush/compaction
    makes them stale) and the hot-POI cache (revalidated against the
    POI repository's version plus a HotIn epoch); capacities are the
    defaults of ``RegionScanCache`` / ``HotPOICache``.  ``coalesce``
    single-flights identical in-flight personalized queries; it stores
    nothing, so it stays on under ``baseline()`` too.
    """

    enabled: bool = True
    #: Deduplicate identical in-flight personalized queries.
    coalesce: bool = True


@dataclass
class TopKConfig:
    """Knobs of threshold-algorithm top-k early termination
    (:mod:`repro.core.modules.topk`).

    Regions emit score-sorted batches with an upper bound on the
    unemitted rest, and the merger cancels emission it can prove
    irrelevant.  With ``enabled=False`` regions ship complete partials
    and the web tier ranks at the end — the reference the differential
    oracle suite compares against.
    """

    enabled: bool = True
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

    Visits submitted through :meth:`MoDisSENSE.ingest_visit` flow
    through bounded per-partition queues into applier workers that
    group-commit batches through the WAL and fold HotIn aggregates
    incrementally; the batch MapReduce job becomes a periodic
    reconciliation pass.  With ``enabled=False`` no tier is built and
    the scheduler runs the full-recompute ``hotin_update`` job.
    """

    enabled: bool = True
    #: Applier workers / queue partitions.  Regions map onto partitions
    #: many-to-one (remapped by the load-aware rebalancer); one applier
    #: drains a region at a time, keeping regions single-writer.
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
    #: Rebalance checks are skipped until the observation window has
    #: seen at least this many events (avoids thrashing on noise).
    rebalance_min_events: int = 512
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
        if self.refresh_interval_s < 0:
            raise ConfigError("refresh_interval_s must be >= 0")
        if self.rebalance_min_events < 1:
            raise ConfigError("rebalance_min_events must be >= 1")


@dataclass
class SupervisorConfig:
    """Switch of the self-healing cluster supervisor: heartbeat leases,
    WAL-split recovery and the storage scrubber (``repro.core.
    supervisor``, which also holds the lease and scrub constants).  With
    ``enabled=False`` failure handling is the manual
    ``fail_node``/``recover_node`` story; the cluster logs every region
    either way.
    """

    enabled: bool = True


@dataclass
class AdmissionConfig:
    """Knobs of the overload-protection layer (``repro.core.admission``).

    Un-triggered (no overload), the only added work per request is a
    ticket acquire/release and answers stay byte-identical to
    ``baseline()``'s; the ``bench-gates`` CI job gates that overhead
    at ≤10%.  With ``enabled=False`` no controller is constructed.

    Four coupled mechanisms: an AIMD concurrency limiter per priority
    class, per-client token buckets at the REST boundary, a global
    retry budget over the fan-out's retries and hedges, and a brownout
    ladder that degrades before it rejects.  Class weights, the retry
    budget and the ladder's thresholds are constants of the module.
    """

    enabled: bool = True

    # ---- adaptive concurrency limiter (per priority class) ----
    #: Starting concurrency limit of the interactive class's limiter.
    initial_limit: int = 32
    min_limit: int = 2
    max_limit: int = 256
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

    # ---- brownout ladder ----
    #: Consecutive overloaded ticks before escalating one level, and
    #: calm ticks before recovering one level (hysteresis).
    escalate_ticks: int = 2
    recover_ticks: int = 3

    def __post_init__(self) -> None:
        if self.min_limit < 1:
            raise ConfigError("min_limit must be >= 1")
        if not self.min_limit <= self.initial_limit <= self.max_limit:
            raise ConfigError(
                "need min_limit <= initial_limit <= max_limit, got %r/%r/%r"
                % (self.min_limit, self.initial_limit, self.max_limit)
            )
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
        if self.escalate_ticks < 1 or self.recover_ticks < 1:
            raise ConfigError("escalate/recover tick counts must be >= 1")


@dataclass
class TelemetryConfig:
    """Knobs of the telemetry pipeline (``repro.core.telemetry``).

    The pipeline only observes (scrapes, samples, events), so query
    answers are byte-identical with it on or off; the ``bench-gates`` CI
    job gates measured overhead at ≤10%.  ``enabled=False`` constructs
    no hub.  Stock SLOs: ``repro.core.telemetry.slo.default_slos``.
    """

    enabled: bool = True
    #: Raw samples kept per series.
    base_samples: int = 720
    #: Always-kept wide-event ring capacity (slow/degraded/errored/alerts).
    interesting_capacity: int = 256
    #: Arms the continuous sampling profiler.
    profiler_enabled: bool = True
    #: Wall seconds between profiler samples (0.02 = 50 Hz).
    profiler_interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.base_samples < 2:
            raise ConfigError("base_samples must be >= 2")
        if self.interesting_capacity < 1:
            raise ConfigError("interesting_capacity must be >= 1")
        if self.profiler_interval_s <= 0:
            raise ConfigError("profiler_interval_s must be positive")


@dataclass
class PlatformConfig:
    """Top-level configuration for a MoDisSENSE deployment; the default
    is the production profile (see the module docstring)."""

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

    @classmethod
    def baseline(cls, cluster: Optional[ClusterConfig] = None) -> "PlatformConfig":
        """The paper's un-extended mechanism: cache, top-k, ingest,
        supervisor and admission off (tracing and telemetry only
        observe and stay on) — the reference arm of the paper-figure
        benches and the per-feature differential tests."""
        return cls(
            cluster=cluster or ClusterConfig(),
            cache=CacheConfig(enabled=False),
            topk=TopKConfig(enabled=False),
            ingest=IngestConfig(enabled=False),
            supervisor=SupervisorConfig(enabled=False),
            admission=AdmissionConfig(enabled=False),
        )

    @classmethod
    def small(cls) -> "PlatformConfig":
        """A cluster shape sized for unit tests: 4 nodes, 8 regions."""
        return cls(cluster=ClusterConfig(num_nodes=4, regions_per_table=8))

    @classmethod
    def paper(cls, num_nodes: int = 16) -> "PlatformConfig":
        """The paper's cluster shape for a given cluster size."""
        if num_nodes not in PAPER_CLUSTER_SIZES:
            raise ConfigError(
                "paper cluster sizes are %s, got %r"
                % (PAPER_CLUSTER_SIZES, num_nodes)
            )
        return cls(cluster=ClusterConfig(num_nodes=num_nodes))
