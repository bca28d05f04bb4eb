"""The MoDisSENSE platform facade.

Wires every repository and processing module over the simulated cluster,
exactly as Figure 1 of the paper composes them.  This is the object the
examples, the REST layer and the benchmarks instantiate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import PlatformConfig
from ..datagen.gps import GPSPoint
from ..hbase import HBaseCluster, RegionScanCache
from ..mapreduce import JobRunner
from ..social import (
    NETWORK_FACEBOOK,
    NETWORK_FOURSQUARE,
    NETWORK_TWITTER,
    SimulatedNetwork,
    SocialNetworkPlugin,
)
from ..sqlstore import SqlEngine
from .modules.blog import BlogModule
from .modules.data_collection import DataCollectionModule
from .modules.event_detection import EventDetectionModule
from .modules.hotin_update import HotInReport, HotInUpdateModule
from .modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
    SearchResult,
)
from .admission import AdmissionController
from .caching import HotPOICache
from .faults import FaultInjector
from .ingest import StreamingIngestTier
from .modules.hotin_update import IncrementalHotIn, ReconcileReport
from .monitoring import PlatformMetrics
from .supervisor import ClusterSupervisor
from .telemetry import TelemetryHub
from .tracing import Tracer
from .modules.text_processing import TextProcessingModule
from .modules.trajectory import TrajectoryModule
from .modules.trending import TrendingModule, TrendingQuery
from .modules.user_management import PlatformUser, UserManagementModule
from .repositories.blogs import BlogEntry, BlogsRepository
from .repositories.gps_traces import GPSTracesRepository
from .repositories.poi import POI, POIRepository
from .repositories.social_info import SocialInfoRepository
from .repositories.text_repo import TextRepository
from .repositories.visits import VisitsRepository


#: Incremental HotIn cells older than the reconcile window's start
#: minus this slack (seconds of event time) are pruned after each
#: reconcile.
HOTIN_PRUNE_SLACK_S = 24 * 3600.0


class MoDisSENSE:
    """One platform deployment.

    Parameters
    ----------
    config:
        Defaults to ``PlatformConfig()``.  Every subsystem below is
        always built: ``scan_cache``, ``hot_poi_cache``, ``ingest``,
        ``incremental_hotin``, ``supervisor`` and ``admission`` are
        never None.
    plugins:
        Social-network integrations; defaults to simulated Facebook,
        Twitter and Foursquare, matching the paper's supported networks.
    visits_schema_mode:
        ``"replicated"`` (paper default) or ``"normalized"`` for the
        schema ablation.
    """

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        plugins: Optional[Dict[str, SocialNetworkPlugin]] = None,
        visits_schema_mode: str = "replicated",
    ) -> None:
        self.config = config or PlatformConfig()

        # ---- observability tier (everything below reports into these)
        self.metrics = PlatformMetrics()
        self.tracer = Tracer.from_config(self.config.tracing)
        #: The telemetry pipeline: time-series store, SLO engine,
        #: continuous profiler, wide-event log; None when
        #: ``config.telemetry.enabled`` is False.
        self.telemetry: Optional[TelemetryHub] = None
        events = None
        if self.config.telemetry.enabled:
            self.telemetry = TelemetryHub(
                self.metrics, self.config.telemetry
            ).start()
            events = self.telemetry.events

        # ---- what the storage tier reports into and consults, built
        # first so the cluster takes each one at construction
        #: Armed only when ``config.faults.enabled``; the clean path has
        #: no injector at all.
        self.fault_injector: Optional[FaultInjector] = None
        if self.config.faults.enabled:
            self.fault_injector = FaultInjector(self.config.faults)
            self.fault_injector.event_log = events
        #: Admission controller + brownout ladder.  The fan-out's
        #: retry/hedge paths draw from its global budget.
        self.admission = AdmissionController(
            self.config.admission, metrics=self.metrics, event_log=events
        )
        #: Per-region friend-partition scan cache the cluster hands to
        #: coprocessor invocations, and the web tier's hot-POI cache.
        self.scan_cache = RegionScanCache(metrics=self.metrics)
        self.hot_poi_cache = HotPOICache(
            metrics=self.metrics, event_log=events
        )

        # ---- storage tier
        self.hbase = HBaseCluster(
            self.config.cluster,
            faults_config=self.config.faults,
            metrics=self.metrics,
            event_log=events,
            fault_injector=self.fault_injector,
            retry_budget=self.admission.retry_budget,
            scan_cache=self.scan_cache,
        )
        self.sql = SqlEngine()
        regions = self.config.cluster.regions_per_table
        self.poi_repository = POIRepository(self.sql)
        self.social_info = SocialInfoRepository(
            self.hbase, num_regions=max(2, regions // 8)
        )
        self.text_repository = TextRepository(
            self.hbase, num_regions=max(2, regions // 4)
        )
        self.visits_repository = VisitsRepository(
            self.hbase, num_regions=regions, schema_mode=visits_schema_mode
        )
        self.gps_repository = GPSTracesRepository(
            self.hbase, num_regions=max(2, regions // 2)
        )
        self.blogs_repository = BlogsRepository(self.sql)

        # ---- social tier
        self.plugins: Dict[str, SocialNetworkPlugin] = plugins or {
            NETWORK_FACEBOOK: SimulatedNetwork(NETWORK_FACEBOOK),
            NETWORK_TWITTER: SimulatedNetwork(NETWORK_TWITTER),
            NETWORK_FOURSQUARE: SimulatedNetwork(NETWORK_FOURSQUARE),
        }

        # ---- processing tier
        self.job_runner = JobRunner(tracer=self.tracer, metrics=self.metrics)
        self.user_management = UserManagementModule(self.plugins)
        self.text_processing = TextProcessingModule(
            self.text_repository, self.config.sentiment
        )
        self.data_collection = DataCollectionModule(
            user_management=self.user_management,
            plugins=self.plugins,
            social_info=self.social_info,
            visits=self.visits_repository,
            text_processing=self.text_processing,
            poi_repository=self.poi_repository,
        )
        self.query_answering = QueryAnsweringModule(
            self.poi_repository,
            self.visits_repository,
            tracer=self.tracer,
            metrics=self.metrics,
            hot_poi_cache=self.hot_poi_cache,
            event_log=events,
            admission=self.admission,
            topk_config=self.config.topk,
        )
        self.trending = TrendingModule(self.query_answering)
        self.hotin_update = HotInUpdateModule(
            self.visits_repository,
            self.poi_repository,
            runner=self.job_runner,
            num_mappers=self.config.cluster.total_cores,
        )
        # ---- streaming ingest tier
        #: Delta-maintained hotness/interest state the appliers fold.
        self.incremental_hotin = IncrementalHotIn()
        self.ingest = StreamingIngestTier(
            self.visits_repository,
            self.poi_repository,
            self.incremental_hotin,
            config=self.config.ingest,
            metrics=self.metrics,
            tracer=self.tracer,
            hot_poi_cache=self.hot_poi_cache,
            event_log=events,
        ).start()
        # Brownout level 3+ flips the tier to shed-on-full so blocked
        # producers can't pile up during an overload.
        self.admission.ingest = self.ingest
        # ---- self-healing supervisor: acts only on its ticks, so
        # manual ``fail_node``/``recover_node`` works beside it.
        self.supervisor = ClusterSupervisor(
            self.hbase,
            metrics=self.metrics,
            tracer=self.tracer,
            event_log=events,
        )
        self.event_detection = EventDetectionModule(
            self.gps_repository, self.poi_repository, self.config.jobs
        )
        self.trajectory = TrajectoryModule(
            self.gps_repository, self.poi_repository, self.text_repository
        )
        self.blog = BlogModule(
            trajectory_module=self.trajectory,
            blogs_repository=self.blogs_repository,
            user_management=self.user_management,
            plugins=self.plugins,
        )
        if self.telemetry is not None:
            self.telemetry.add_collector(self._telemetry_collect)

    def _telemetry_collect(self, now: float) -> None:
        """Pre-scrape hook: refresh derived gauges so each telemetry
        tick samples *current* state, not whatever an event last left
        in the registry."""
        self.metrics.set_gauge(
            "ingest.freshness_age_s", self.ingest.freshness_age_s()
        )
        self.metrics.set_gauge(
            "ingest.queue_depth_total",
            sum(q.depth() for q in self.ingest._queues),
        )
        live = self.hbase.simulation.live_nodes()
        self.metrics.set_gauge("cluster.live_nodes", len(live))

    # ----------------------------------------------------- conveniences

    def register_user(
        self, network: str, network_user_id: str, password: str, now: float
    ) -> PlatformUser:
        """Sign a user up with social credentials (OAuth flow)."""
        return self.user_management.register(
            network, network_user_id, password, now
        )

    def search(self, query: SearchQuery) -> SearchResult:
        """Answer a (personalized or not) POI search."""
        return self.query_answering.search(query)

    def trending_events(self, query: TrendingQuery) -> SearchResult:
        return self.trending.trending(query)

    def collect(self, now: int):
        """Run the Data Collection Module once."""
        return self.data_collection.run(now)

    def run_hotin(self, since: int, until: int) -> HotInReport:
        """Run the HotIn Update job over ``[since, until)``.

        The job rewrites POI hotness/interest columns, so every cached
        non-personalized answer is invalidated by bumping the hot-POI
        cache epoch after the refresh lands."""
        report = self.hotin_update.run(since, until)
        self.hot_poi_cache.bump_epoch()
        return report

    # ------------------------------------------------- streaming ingest

    def ingest_visit(self, visit) -> int:
        """Submit one visit to the streaming ingest tier.

        Returns the partition it was enqueued on.  Raises
        :class:`~repro.errors.BackpressureError` when the partition's
        bounded queue stays full — the visit is then *not* enqueued and
        the caller owns the retry.
        """
        return self.ingest.submit(visit)

    def ingest_visits(self, visits) -> int:
        """Submit many visits to the streaming tier; returns the count."""
        return self.ingest.submit_many(visits)

    def reconcile_hotin(self, since: int, until: int) -> ReconcileReport:
        """Run the verify-and-repair pass over ``[since, until)``.

        This replaces a periodic batch HotIn job: the MapReduce
        recompute becomes the source-of-truth check against the
        incremental state, repairing any divergence and re-anchoring the
        tier's aggregation window at ``since``.  Cached
        non-personalized answers are invalidated whenever a repair
        rewrote POI rows.
        """
        ingest = self.ingest
        ingest.window_since = since
        ingest.window_until = None
        report = self.hotin_update.reconcile(
            self.incremental_hotin, since, until
        )
        self.incremental_hotin.prune(int(since - HOTIN_PRUNE_SLACK_S))
        # Folded WAL prefixes can never replay again; dropping them here
        # bounds WAL memory to the un-folded suffix between reconciles.
        ingest.compact_wals()
        if report.pois_updated:
            self.hot_poi_cache.bump_epoch()
        return report

    def sweep_caches(self) -> int:
        """Reap scan-cache generations their regions can no longer
        bring up to date; returns how many entries went.  Wired to the
        scheduler's ``cache_maintenance`` job."""
        return self.hbase.scan_cache_sweep()

    def detect_events(self, since: Optional[int] = None, until: Optional[int] = None):
        """Run the Event Detection Module once."""
        return self.event_detection.run(since, until)

    def push_gps(self, points: Sequence[GPSPoint]) -> int:
        """Ingest GPS trace samples from a device."""
        return self.gps_repository.push_many(points)

    def generate_blog(self, user_id: int, day_start: int, day_end: int) -> BlogEntry:
        return self.blog.generate_daily_blog(user_id, day_start, day_end)

    def load_pois(self, pois) -> int:
        """Load POI records (e.g. the synthetic OpenStreetMap extract)
        as one batch insert; returns how many."""
        return self.poi_repository.add_many(
            POI(
                poi_id=record.poi_id,
                name=record.name,
                lat=record.lat,
                lon=record.lon,
                keywords=tuple(record.keywords),
                category=record.category,
            )
            for record in pois
        )

    def load_visits(self, visits) -> int:
        """Bulk-load pre-generated visit records (the dataset every
        experiment starts from) as sorted store-file data; returns how
        many.  Visits that arrive afterwards are ``ingest_visit`` /
        ``visits_repository.store`` business."""
        return self.visits_repository.bulk_load(visits)

    def shutdown(self) -> None:
        """Stop the platform's own threads: the ingest appliers (after
        draining their queues) and the telemetry profiler."""
        self.ingest.stop(drain=True)
        if self.telemetry is not None:
            self.telemetry.close()

    def __enter__(self) -> "MoDisSENSE":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def describe(self) -> dict:
        """Deployment summary for logs and the demo GUI."""
        return {
            "hbase": self.hbase.describe(),
            "sql_tables": self.sql.table_names(),
            "pois": self.poi_repository.count(),
            "visits": self.visits_repository.count(),
            "networks": sorted(self.plugins),
            "tracing": self.tracer.describe(),
            "cache": {"enabled": True},
            "ingest": self.ingest.stats(),
            "telemetry": (
                self.telemetry.describe() if self.telemetry is not None
                else {"enabled": False}
            ),
            "supervisor": self.supervisor.describe(),
            "admission": self.admission.describe(),
        }
