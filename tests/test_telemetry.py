"""The telemetry pipeline: time-series store, SLO engine, profiler,
wide-event log, and the deterministic chaos drill."""

import threading
import warnings

import pytest

from repro import threadreg
from repro.config import (
    ClusterConfig,
    FaultsConfig,
    PlatformConfig,
    TelemetryConfig,
)
from repro.core.api import RestApi
from repro.core.platform import MoDisSENSE
from repro.core.repositories.visits import VisitStruct
from repro.core.scheduler import PeriodicScheduler, build_platform_scheduler
from repro.core.telemetry import (
    ContinuousProfiler,
    SLOEngine,
    TimeSeriesStore,
    WideEventLog,
)
from repro.core.telemetry.slo import SLOSpec, default_slos
from repro.errors import DegradedResultWarning, ValidationError


# --------------------------------------------------------------------------
# TimeSeriesStore
# --------------------------------------------------------------------------


class TestTimeSeriesStore:
    def test_base_samples_and_rollups(self):
        store = TimeSeriesStore(resolutions=(1.0, 10.0))
        for t in range(25):
            store.record("x", "gauge", float(t), float(t))
        raw = store.query("x")
        assert raw["kind"] == "gauge"
        assert raw["points"][0] == [0.0, 0.0]
        assert raw["points"][-1] == [24.0, 24.0]

        rolled = store.query("x", resolution=10.0)
        assert rolled["resolution"] == 10.0
        # Buckets [0, 10), [10, 20), [20, 25 open).
        starts = [p[0] for p in rolled["points"]]
        assert starts == [0.0, 10.0, 20.0]
        b0 = rolled["points"][0]
        # (start, count, sum, min, max, last)
        assert b0[1] == 10 and b0[2] == sum(range(10))
        assert b0[3] == 0.0 and b0[4] == 9.0 and b0[5] == 9.0

    def test_nearest_resolution_chosen(self):
        store = TimeSeriesStore(resolutions=(1.0, 60.0))
        store.record("x", "counter", 1.0, 0.0)
        assert store.query("x", resolution=45.0)["resolution"] == 60.0
        assert store.query("x", resolution=2.0)["resolution"] == 1.0

    def test_scrape_folds_registry_snapshot(self):
        store = TimeSeriesStore()
        n = store.scrape({"a": ("counter", 1.0), "b": ("gauge", 2.0)}, 5.0)
        assert n == 2
        assert store.scrapes == 1 and store.last_scrape_at == 5.0
        assert store.names() == ["a", "b"]
        assert store.kind_of("a") == "counter"
        assert store.latest("b") == 2.0

    def test_value_at_and_delta(self):
        store = TimeSeriesStore()
        for t, v in ((1.0, 10.0), (2.0, 14.0), (3.0, 20.0)):
            store.record("c", "counter", v, t)
        assert store.value_at("c", 2.5) == 14.0
        assert store.value_at("c", 0.5) == 0.0  # before first sample
        assert store.delta("c", 1.0, 3.0) == 10.0
        # Clamp: a reset counter never yields a negative delta.
        store.record("c", "counter", 0.0, 4.0)
        assert store.delta("c", 3.0, 4.0) == 0.0

    def test_value_at_falls_back_to_rollups_after_eviction(self):
        store = TimeSeriesStore(base_samples=4, resolutions=(1.0,))
        for t in range(10):
            store.record("c", "counter", float(t), float(t))
        # t=2 evicted from the 4-sample base ring; the 1s rollup keeps it.
        assert store.value_at("c", 2.0) == 2.0

    def test_window_samples_bridge_rollups_and_base(self):
        store = TimeSeriesStore(base_samples=4, resolutions=(1.0,))
        for t in range(10):
            store.record("g", "gauge", float(t), float(t))
        samples = store.window_samples("g", 1.0, 9.0)
        # Every instant past the window start is represented (rollup
        # buckets stand in where the base ring was evicted).
        assert [s[0] for s in samples] == [float(t) for t in range(2, 10)]
        assert all(mn <= mx for _t, mn, mx in samples)

    def test_bounded_memory(self):
        store = TimeSeriesStore(base_samples=8, resolutions=(1.0,),
                                buckets_per_resolution=4)
        for t in range(100):
            store.record("x", "gauge", 1.0, float(t))
        raw = store.query("x")
        assert len(raw["points"]) == 8
        rolled = store.query("x", resolution=1.0)
        assert len(rolled["points"]) <= 5  # ring + open bucket

    def test_query_since_until_limit(self):
        store = TimeSeriesStore()
        for t in range(10):
            store.record("x", "gauge", float(t), float(t))
        pts = store.query("x", since=3.0, until=7.0)["points"]
        assert [p[0] for p in pts] == [3.0, 4.0, 5.0, 6.0, 7.0]
        pts = store.query("x", limit=2)["points"]
        assert [p[0] for p in pts] == [8.0, 9.0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeSeriesStore(base_samples=1)
        with pytest.raises(ValidationError):
            TimeSeriesStore(resolutions=())
        with pytest.raises(ValidationError):
            TimeSeriesStore(resolutions=(0.0,))


# --------------------------------------------------------------------------
# SLO engine
# --------------------------------------------------------------------------


def _ratio_spec(**overrides):
    defaults = dict(
        name="coverage",
        kind="ratio",
        target=0.999,
        bad_series="bad",
        total_series="total",
        fast_window_s=60,
        slow_window_s=600,
        critical_burn=8.0,
        warning_burn=2.0,
    )
    defaults.update(overrides)
    return SLOSpec(**defaults)


class TestSLOEngine:
    def test_healthy_with_no_data(self):
        store = TimeSeriesStore()
        engine = SLOEngine([_ratio_spec()], store)
        out = engine.evaluate(100.0)
        assert out["state"] == "healthy"
        assert out["slos"][0]["no_data"] is True

    def test_ratio_burn_trips_critical(self):
        store = TimeSeriesStore()
        # 10 scrapes of clean traffic, then bad counts surge: 25% bad
        # over the fast window is a 250x burn against a 0.1% budget.
        for t in range(10):
            store.scrape({"bad": ("counter", 0.0),
                          "total": ("counter", float(10 * t))}, float(t))
        engine = SLOEngine([_ratio_spec()], store)
        assert engine.evaluate(9.0)["state"] == "healthy"
        store.scrape({"bad": ("counter", 10.0),
                      "total": ("counter", 130.0)}, 10.0)
        out = engine.evaluate(10.0)
        assert out["state"] == "critical"
        slo = out["slos"][0]
        assert slo["fast_burn"] >= slo["critical_burn"]
        assert slo["budget_remaining"] < 1.0

    def test_threshold_direction_le(self):
        store = TimeSeriesStore()
        spec = SLOSpec(
            name="p99", kind="threshold", target=0.99,
            series="lat:p99", threshold=100.0, direction="le",
            fast_window_s=10, slow_window_s=60,
        )
        for t in range(5):
            store.scrape({"lat:p99": ("gauge", 50.0)}, float(t))
        engine = SLOEngine([spec], store)
        assert engine.evaluate(4.0)["state"] == "healthy"
        store.scrape({"lat:p99": ("gauge", 500.0)}, 5.0)
        out = engine.evaluate(5.0)
        # 1 violating sample of 6 in the fast window: burn 1/6/0.01 > 8.
        assert out["state"] == "critical"

    def test_threshold_budget_consumes_once_per_sample(self):
        store = TimeSeriesStore()
        spec = SLOSpec(
            name="p99", kind="threshold", target=0.5,
            series="s", threshold=1.0, direction="le",
            fast_window_s=10, slow_window_s=60,
        )
        engine = SLOEngine([spec], store)
        store.scrape({"s": ("gauge", 5.0)}, 1.0)
        first = engine.evaluate(1.0)["slos"][0]["budget_remaining"]
        # Re-evaluating the same store state must not double-count.
        again = engine.evaluate(1.0)["slos"][0]["budget_remaining"]
        assert first == again

    def test_transition_emits_alert_event_and_counter(self):
        from repro.core.monitoring import PlatformMetrics

        store = TimeSeriesStore()
        metrics = PlatformMetrics()
        events = WideEventLog()
        engine = SLOEngine(
            [_ratio_spec()], store, metrics=metrics, events=events
        )
        for t in range(3):
            store.scrape({"bad": ("counter", float(5 * t)),
                          "total": ("counter", float(10 * t))}, float(t))
        out = engine.evaluate(2.0)
        assert out["state"] == "critical"
        alerts = events.query(event_type="slo.transition")
        assert alerts and alerts[0]["to"] == "critical"
        assert alerts[0]["slo"] == "coverage"
        assert metrics.counter(
            "slo.transitions", labels={"slo": "coverage", "to": "critical"}
        ) == 1
        # Recovery: once the burst ages out of the slow window too,
        # the SLO transitions back and announces it.
        for t in range(3, 700):
            store.scrape({"bad": ("counter", 10.0),
                          "total": ("counter", float(10 * t))}, float(t))
        assert engine.evaluate(699.0)["state"] == "healthy"
        alerts = events.query(event_type="slo.transition")
        assert alerts[0]["to"] == "healthy"

    def test_default_slos_are_valid_and_unique(self):
        specs = default_slos()
        names = [s.name for s in specs]
        assert len(names) == len(set(names)) == 8
        assert "fanout_coverage" in names
        assert "ingest_freshness" in names
        assert "goodput" in names
        store = TimeSeriesStore()
        engine = SLOEngine(specs, store)
        assert engine.evaluate(0.0)["state"] == "healthy"

    def test_spec_validation(self):
        with pytest.raises(Exception):
            SLOSpec(name="x", kind="ratio", target=1.5,
                    bad_series="b", total_series="t")
        with pytest.raises(Exception):
            SLOSpec(name="x", kind="nope", target=0.9)
        with pytest.raises(Exception):
            SLOSpec(name="x", kind="threshold", target=0.9,
                    series="s", threshold=1.0, direction="sideways")


# --------------------------------------------------------------------------
# Wide-event log
# --------------------------------------------------------------------------


class TestWideEventLog:
    def test_tail_sampling_keeps_one_in_n(self):
        log = WideEventLog(sample_every=4)
        for _ in range(8):
            log.emit({"type": "boring"})
        kept = log.query(event_type="boring")
        assert len(kept) == 2  # indices 0 and 4
        stats = log.stats()
        assert stats["emitted"] == 8 and stats["sampled_out"] == 6

    def test_interesting_events_always_kept(self):
        log = WideEventLog(sample_every=1000)
        for i in range(20):
            log.emit({"type": "q", "degraded": i % 2 == 1})
        degraded = log.query(event_type="q", interesting_only=True)
        assert len(degraded) == 10
        assert all(e["interesting"] for e in degraded)
        # keep=True works the same way for explicitly pinned events.
        log.emit({"type": "pinned"}, keep=True)
        assert log.query(event_type="pinned", interesting_only=True)

    def test_interesting_ring_survives_boring_burst(self):
        log = WideEventLog(capacity=8, interesting_capacity=8,
                           sample_every=1)
        log.emit({"type": "q", "error": "boom"})
        for _ in range(50):
            log.emit({"type": "noise"})
        # Evicted from the recent ring, retained in the interesting one.
        assert log.query(event_type="q") == []
        assert log.query(event_type="q", interesting_only=True)

    def test_events_stamped_with_seq_newest_first(self):
        log = WideEventLog(sample_every=1)
        log.emit({"type": "a"})
        log.emit({"type": "b"})
        events = log.query()
        assert events[0]["type"] == "b" and events[0]["seq"] == 2
        assert events[1]["type"] == "a" and events[1]["seq"] == 1


# --------------------------------------------------------------------------
# Continuous profiler
# --------------------------------------------------------------------------


class TestContinuousProfiler:
    def test_sample_once_attributes_registered_threads(self):
        profiler = ContinuousProfiler()
        done = threading.Event()
        stop = threading.Event()

        def worker():
            threadreg.register_current_thread("ingest")
            done.set()
            stop.wait(5.0)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        done.wait(5.0)
        try:
            # The sampling thread itself is whoever calls sample_once;
            # exclude it so only the worker (+ pytest machinery) counts.
            profiler.sample_once(skip_ident=threading.get_ident())
            stats = profiler.stats()
            assert stats["samples"] >= 1
            assert stats["by_component"].get("ingest", 0) >= 1
        finally:
            stop.set()
            thread.join()
            threadreg._components.pop(thread.ident, None)

    def test_sample_does_not_keep_sampled_frames_alive(self):
        """A sample must not pin the sampled threads' locals: the frame
        snapshot contains the sampler's own frame, whose local is the
        snapshot — a cycle that kept every sampled frame (and, in a
        region scan, its whole aggregate state) alive until the cyclic
        collector ran."""
        import gc
        import weakref

        class Local:
            pass

        profiler = ContinuousProfiler()
        parked = threading.Event()
        release = threading.Event()
        refs = []

        def worker():
            local = Local()
            refs.append(weakref.ref(local))
            parked.set()
            release.wait(5.0)

        thread = threading.Thread(target=worker, daemon=True)
        gc.collect()
        gc.disable()
        try:
            thread.start()
            parked.wait(5.0)
            profiler.sample_once()
            release.set()
            thread.join()
            assert refs[0]() is None, "sampled frame outlived its thread"
        finally:
            gc.enable()
            release.set()

    def test_folded_output_shape(self):
        profiler = ContinuousProfiler()
        previous = threadreg.push_component("rest")
        try:
            profiler.sample_once()
        finally:
            threadreg.pop_component(previous)
        lines = profiler.folded(component="rest")
        assert lines, "own stack must be sampled"
        head, count = lines[0].rsplit(" ", 1)
        assert head.startswith("rest;")
        assert int(count) >= 1
        # Frame labels are module.function pairs.
        assert any("test_telemetry" in part for part in head.split(";"))

    def test_attributed_fraction(self):
        profiler = ContinuousProfiler()
        previous = threadreg.push_component("rest")
        try:
            profiler.sample_once()
        finally:
            threadreg.pop_component(previous)
        stats = profiler.stats()
        assert 0.0 < stats["attributed_fraction"] <= 1.0

    def test_start_stop_idempotent(self):
        profiler = ContinuousProfiler(interval_s=0.005)
        profiler.start()
        profiler.start()
        assert profiler.running
        profiler.stop()
        assert not profiler.running
        profiler.stop()

    def test_reset(self):
        profiler = ContinuousProfiler()
        profiler.sample_once()
        assert profiler.stats()["samples"] >= 1
        profiler.reset()
        assert profiler.stats()["samples"] == 0


# --------------------------------------------------------------------------
# Thread registry
# --------------------------------------------------------------------------


class TestThreadRegistry:
    def test_push_pop_restores_previous(self):
        assert threadreg.component_of(threading.get_ident()) is None
        prev = threadreg.push_component("outer")
        try:
            assert threadreg.component_of(threading.get_ident()) == "outer"
            inner_prev = threadreg.push_component("inner")
            assert threadreg.component_of(threading.get_ident()) == "inner"
            threadreg.pop_component(inner_prev)
            assert threadreg.component_of(threading.get_ident()) == "outer"
        finally:
            threadreg.pop_component(prev)
        assert threadreg.component_of(threading.get_ident()) is None

    def test_register_unregister(self):
        threadreg.register_current_thread("x")
        assert threadreg.snapshot()[threading.get_ident()] == "x"
        threadreg.unregister_current_thread()
        assert threading.get_ident() not in threadreg.snapshot()


# --------------------------------------------------------------------------
# Scheduler: level-triggered scrape job
# --------------------------------------------------------------------------


class TestSchedulerCatchUp:
    def test_catch_up_job_fires_once_per_missed_period(self):
        sched = PeriodicScheduler()
        fired = []
        sched.register("cron", 1.0, fired.append)
        sched.advance_to(10.0)
        assert len(fired) == 10

    def test_level_triggered_job_fires_once_per_advance(self):
        sched = PeriodicScheduler()
        fired = []
        sched.register("scrape", 1.0, fired.append, catch_up=False)
        sched.advance_to(100.0)
        assert fired == [1.0]
        # The schedule stays phase-aligned: next fire is past 100.
        assert sched.job("scrape").next_fire_at == 101.0
        sched.advance_to(103.5)
        assert fired == [1.0, 101.0]

    def test_level_triggered_fires_every_period_under_small_steps(self):
        sched = PeriodicScheduler()
        fired = []
        sched.register("scrape", 1.0, fired.append, catch_up=False)
        for _ in range(5):
            sched.advance_by(1.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


# --------------------------------------------------------------------------
# Platform integration: the chaos drill
# --------------------------------------------------------------------------


def _drill_config(**fault_overrides):
    faults = dict(enabled=True, lost_region_fraction=1.0,
                  stale_location_errors=0, seed=7)
    faults.update(fault_overrides)
    return PlatformConfig(
        cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
        faults=FaultsConfig(**faults),
        telemetry=TelemetryConfig(profiler_enabled=False),
    )


def _seed_visits(platform, users=30):
    for uid in range(1, users):
        platform.visits_repository.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
            poi_name="A", lat=37.98, lon=23.73, keywords=("x",),
        ))


class TestChaosDrill:
    """Seeded node kill -> coverage SLO fast burn -> critical -> recovery."""

    def test_node_kill_burns_coverage_budget_to_critical(self):
        from repro.core.modules.query_answering import SearchQuery

        with MoDisSENSE(_drill_config()) as platform:
            _seed_visits(platform)
            scheduler = build_platform_scheduler(platform)
            query = SearchQuery(friend_ids=tuple(range(1, 30)),
                                sort_by="hotness")
            # Healthy baseline: clean traffic, scraped each second.
            for _ in range(5):
                platform.search(query)
                scheduler.advance_by(1.0)
            health = platform.telemetry.health()
            assert health["state"] == "healthy"

            # The drill: deterministically kill node 0 mid-traffic.
            platform.hbase.fail_node(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                for _ in range(5):
                    platform.search(query)
                    scheduler.advance_by(1.0)

            health = platform.telemetry.health()
            assert health["state"] == "critical"
            by_name = {s["name"]: s for s in health["slos"]}
            coverage = by_name["fanout_coverage"]
            assert coverage["state"] == "critical"
            assert coverage["fast_burn"] >= coverage["critical_burn"]
            assert coverage["budget_remaining"] < 1.0
            # The degraded-rate SLO burns alongside coverage.
            assert by_name["degraded_query_rate"]["state"] == "critical"

            # The timeline explains itself: node.failed is on record.
            node_events = platform.telemetry.events.query(
                event_type="node.failed", interesting_only=True
            )
            assert node_events and node_events[0]["node"] == 0

            # Recovery: node back, clean traffic.  The fast burn clears
            # within a fast window (no longer critical) while the slow
            # window still remembers the incident.
            platform.hbase.recover_node(0)
            for _ in range(70):
                platform.search(query)
                scheduler.advance_by(1.0)
            health = platform.telemetry.health()
            by_name = {s["name"]: s for s in health["slos"]}
            coverage = by_name["fanout_coverage"]
            assert coverage["state"] != "critical"
            assert coverage["fast_burn"] < coverage["critical_burn"]

            # Once the incident ages out of the slow window too, the
            # SLO returns to healthy (scrape-only ticks age the clock).
            for _ in range(650):
                scheduler.advance_by(1.0)
            for _ in range(3):
                platform.search(query)
                scheduler.advance_by(1.0)
            health = platform.telemetry.health()
            by_name = {s["name"]: s for s in health["slos"]}
            assert by_name["fanout_coverage"]["state"] == "healthy"
            recovered = platform.telemetry.events.query(
                event_type="node.recovered", interesting_only=True
            )
            assert recovered and recovered[0]["node"] == 0

    def test_zero_fault_run_stays_healthy(self):
        from repro.core.modules.query_answering import SearchQuery

        with MoDisSENSE(_drill_config(lost_region_fraction=0.0)) as platform:
            _seed_visits(platform)
            scheduler = build_platform_scheduler(platform)
            query = SearchQuery(friend_ids=tuple(range(1, 30)),
                                sort_by="hotness")
            for _ in range(10):
                platform.search(query)
                scheduler.advance_by(1.0)
            health = platform.telemetry.health()
            assert health["state"] == "healthy"
            assert all(s["state"] == "healthy" for s in health["slos"])


# --------------------------------------------------------------------------
# Platform integration: events, exemplars, byte-identical answers
# --------------------------------------------------------------------------


class TestPlatformTelemetry:
    def _platform(self, telemetry=None):
        return MoDisSENSE(PlatformConfig(
            cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
            telemetry=telemetry or TelemetryConfig(profiler_enabled=False),
        ))

    def test_query_wide_event_carries_cost_account(self):
        from repro.core.modules.query_answering import SearchQuery

        with self._platform() as platform:
            _seed_visits(platform, users=10)
            result = platform.search(
                SearchQuery(friend_ids=(1, 2, 3), sort_by="hotness")
            )
            events = platform.telemetry.events.query(
                event_type="query.personalized"
            )
            assert events, "first query event is always kept"
            event = events[0]
            assert event["friends"] == 3
            assert event["latency_ms"] == result.latency_ms
            assert event["records_scanned"] == result.records_scanned
            assert event["regions_used"] == result.regions_used
            assert event["trace_id"] == result.trace_id
            assert event["degraded"] is False
            assert "retries" in event and "hedges" in event

    def test_latency_histogram_carries_trace_exemplars(self):
        from repro.core.modules.query_answering import SearchQuery

        with self._platform() as platform:
            _seed_visits(platform, users=10)
            result = platform.search(
                SearchQuery(friend_ids=(1, 2, 3), sort_by="hotness")
            )
            assert result.trace_id is not None
            hist = platform.metrics.histogram("query.personalized")
            exemplars = hist.exemplars()
            assert exemplars
            assert any(e["trace_id"] == result.trace_id for e in exemplars)
            # The exemplar links to a retrievable trace.
            traces = platform.tracer.recent_traces()
            assert any(t["trace_id"] == result.trace_id for t in traces)

    def test_answers_byte_identical_with_telemetry_off(self):
        from repro.core.modules.query_answering import SearchQuery

        def run(telemetry_cfg):
            with self._platform(telemetry=telemetry_cfg) as platform:
                _seed_visits(platform, users=20)
                out = []
                for friends in ((1, 2, 3), tuple(range(1, 20))):
                    result = platform.search(
                        SearchQuery(friend_ids=friends, sort_by="hotness")
                    )
                    out.append([
                        (p.poi_id, p.name, p.lat, p.lon, p.score,
                         p.visit_count)
                        for p in result.pois
                    ])
                return out

        with_telemetry = run(TelemetryConfig(enabled=True))
        without = run(TelemetryConfig(enabled=False))
        assert with_telemetry == without

    def test_telemetry_off_platform_has_no_hub(self):
        with self._platform(
            telemetry=TelemetryConfig(enabled=False)
        ) as platform:
            assert platform.telemetry is None
            assert platform.describe()["telemetry"] == {"enabled": False}

    def test_scrape_job_populates_store_and_freshness(self):
        from repro.config import IngestConfig

        config = PlatformConfig(
            cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
            ingest=IngestConfig(refresh_interval_s=0.0),
            telemetry=TelemetryConfig(profiler_enabled=False),
        )
        with MoDisSENSE(config) as platform:
            scheduler = build_platform_scheduler(platform)
            platform.ingest_visit(VisitStruct(
                user_id=1, poi_id=1, timestamp=100, grade=0.5,
                poi_name="A", lat=37.98, lon=23.73, keywords=("x",),
            ))
            assert platform.ingest.drain(timeout_s=10.0)
            scheduler.advance_by(2.0)
            store = platform.telemetry.store
            assert "ingest.applied" in store.names()
            assert store.latest("ingest.applied") == 1.0
            # Drained and published: the platform is fresh.
            assert store.latest("ingest.freshness_age_s") == 0.0
            batch_events = platform.telemetry.events.query(
                event_type="ingest.batch"
            )
            assert batch_events
            assert batch_events[0]["size"] == 1
            assert batch_events[0]["queue_wait_ms"] >= 0.0

    def test_ingest_freshness_age_zero_when_idle(self):
        config = PlatformConfig(
            cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
            telemetry=TelemetryConfig(profiler_enabled=False),
        )
        with MoDisSENSE(config) as platform:
            assert platform.ingest.freshness_age_s() == 0.0

    def test_breaker_events_reach_the_log(self):
        # Unit-level: a cluster with an event log attached reports
        # breaker opens (platform wiring covered by the chaos drill).
        from repro.hbase import HBaseCluster

        log = WideEventLog()
        cluster = HBaseCluster(
            ClusterConfig(num_nodes=2, regions_per_table=4), event_log=log
        )
        for epoch in range(cluster.faults_config.breaker_threshold):
            cluster._breaker_record(0, ok=False, epoch=epoch)
        opened = log.query(event_type="breaker.opened",
                           interesting_only=True)
        assert opened and opened[0]["node"] == 0
        cluster._breaker_record(0, ok=True, epoch=10)
        assert log.query(event_type="breaker.closed",
                         interesting_only=True)

    def test_profiler_samples_region_work_under_rest(self):
        """Regions run in the thread that asked: a search issued through
        ``RestApi.handle`` has its coprocessor frames sampled under
        ``rest``, and there is no fan-out pool to attribute."""
        config = PlatformConfig(
            cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
            telemetry=TelemetryConfig(
                profiler_enabled=True, profiler_interval_s=0.002
            ),
        )
        with MoDisSENSE(config) as platform:
            _seed_visits(platform, users=30)
            api = RestApi(platform)
            request = {"friend_ids": list(range(1, 30)),
                       "sort_by": "hotness"}
            profiler = platform.telemetry.profiler
            for _ in range(400):
                assert api.handle("search", request)["status"] == "ok"
                if any("_invoke_region" in line
                       for line in profiler.folded(component="rest")):
                    break
            else:
                pytest.fail("no region frame sampled under 'rest'")
            by_component = profiler.stats()["by_component"]
            assert "fanout" not in by_component
            assert "mapreduce" not in by_component
