"""Tests for the core extensions: aggregates, evaluation, simplify,
scheduler, monitoring."""

import pytest

from repro.config import PlatformConfig
from repro.core import MoDisSENSE
from repro.core.monitoring import LatencyHistogram, PlatformMetrics
from repro.core.scheduler import (
    DATA_COLLECTION_PERIOD_S,
    PeriodicScheduler,
    build_platform_scheduler,
)
from repro.errors import QueryError, ValidationError
from repro.geo import GeoPoint, simplify_trace
from repro.sqlstore import (
    Aggregate,
    AggregateQuery,
    Column,
    ColumnType,
    Eq,
    SqlEngine,
    TableSchema,
    execute_aggregate,
)
from repro.text import ConfusionMatrix, evaluate_classifier


# ---------------------------------------------------------------- aggregates


@pytest.fixture()
def agg_engine():
    eng = SqlEngine()
    eng.create_table(
        TableSchema(
            name="pois",
            columns=[
                Column("poi_id", ColumnType.INTEGER),
                Column("category", ColumnType.TEXT),
                Column("interest", ColumnType.FLOAT, nullable=True),
            ],
            primary_key="poi_id",
        )
    )
    rows = [
        (1, "cafe", 0.8),
        (2, "cafe", 0.6),
        (3, "bar", 0.9),
        (4, "bar", None),
        (5, "museum", 0.4),
    ]
    for poi_id, cat, interest in rows:
        eng.insert("pois", {"poi_id": poi_id, "category": cat,
                            "interest": interest})
    return eng


class TestAggregates:
    def test_global_count_and_avg(self, agg_engine):
        out = execute_aggregate(
            agg_engine,
            AggregateQuery(
                table="pois",
                aggregates=[Aggregate("count"), Aggregate("avg", "interest")],
            ),
        )
        assert len(out) == 1
        assert out[0]["count"] == 5
        # NULL interest excluded from the average, SQL-style.
        assert out[0]["avg_interest"] == pytest.approx((0.8 + 0.6 + 0.9 + 0.4) / 4)

    def test_group_by(self, agg_engine):
        out = execute_aggregate(
            agg_engine,
            AggregateQuery(
                table="pois",
                aggregates=[Aggregate("count"), Aggregate("max", "interest")],
                group_by=["category"],
            ),
        )
        by_cat = {row["category"]: row for row in out}
        assert by_cat["cafe"]["count"] == 2
        assert by_cat["cafe"]["max_interest"] == 0.8
        assert by_cat["bar"]["count"] == 2
        assert by_cat["bar"]["max_interest"] == 0.9

    def test_where_and_having(self, agg_engine):
        out = execute_aggregate(
            agg_engine,
            AggregateQuery(
                table="pois",
                aggregates=[Aggregate("count")],
                group_by=["category"],
                having=lambda row: row["count"] >= 2,
            ),
        )
        assert {row["category"] for row in out} == {"cafe", "bar"}

    def test_min_sum_alias(self, agg_engine):
        out = execute_aggregate(
            agg_engine,
            AggregateQuery(
                table="pois",
                aggregates=[
                    Aggregate("min", "interest", alias="lowest"),
                    Aggregate("sum", "interest"),
                ],
                where=Eq("category", "cafe"),
            ),
        )
        assert out[0]["lowest"] == 0.6
        assert out[0]["sum_interest"] == pytest.approx(1.4)

    def test_empty_table_global_aggregate(self):
        eng = SqlEngine()
        eng.create_table(
            TableSchema(
                name="t",
                columns=[Column("id", ColumnType.INTEGER)],
                primary_key="id",
            )
        )
        out = execute_aggregate(
            eng, AggregateQuery(table="t", aggregates=[Aggregate("count")])
        )
        assert out == [{"count": 0}]

    def test_invalid_aggregates(self):
        with pytest.raises(QueryError):
            Aggregate("median", "x")
        with pytest.raises(QueryError):
            Aggregate("avg")  # needs a column
        with pytest.raises(QueryError):
            AggregateQuery(table="t", aggregates=[])


# ---------------------------------------------------------------- evaluation


class TestEvaluation:
    def test_confusion_matrix_metrics(self):
        m = ConfusionMatrix(true_positive=8, false_positive=2,
                            true_negative=7, false_negative=3)
        assert m.total == 20
        assert m.accuracy == pytest.approx(0.75)
        assert m.precision == pytest.approx(0.8)
        assert m.recall == pytest.approx(8 / 11)
        assert m.specificity == pytest.approx(7 / 9)
        assert 0 < m.f1 < 1
        assert "accuracy=0.750" in m.describe()

    def test_degenerate_matrix(self):
        m = ConfusionMatrix(0, 0, 5, 0)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0

    def test_evaluate_classifier(self):
        classify = lambda text: 1 if "good" in text else 0
        docs = [("good one", 1), ("good fake", 0), ("bad one", 0),
                ("missed good thing", 1), ("plain", 1)]
        m = evaluate_classifier(classify, docs)
        assert m.true_positive == 2
        assert m.false_positive == 1
        assert m.true_negative == 1
        assert m.false_negative == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_classifier(lambda t: 1, [])

    def test_invalid_label_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_classifier(lambda t: 1, [("x", 2)])


# ------------------------------------------------------------------ simplify


class TestSimplifyTrace:
    def test_collinear_points_collapse(self):
        points = [GeoPoint(37.0 + i * 0.001, 23.0) for i in range(10)]
        out = simplify_trace(points, tolerance_m=5.0)
        assert out == [points[0], points[-1]]

    def test_corner_preserved(self):
        leg1 = [GeoPoint(37.0 + i * 0.001, 23.0) for i in range(5)]
        leg2 = [GeoPoint(37.004, 23.0 + i * 0.001) for i in range(1, 5)]
        points = leg1 + leg2
        out = simplify_trace(points, tolerance_m=10.0)
        assert points[4] in out  # the corner survives
        assert len(out) < len(points)

    def test_short_inputs_unchanged(self):
        p = [GeoPoint(1, 1), GeoPoint(2, 2)]
        assert simplify_trace(p, 10.0) == p
        assert simplify_trace(p[:1], 10.0) == p[:1]
        assert simplify_trace([], 10.0) == []

    def test_error_bound_respected(self):
        import random

        from repro.geo.simplify import _perpendicular_distance_m

        rng = random.Random(4)
        points = [
            GeoPoint(37.0 + i * 0.0005 + rng.gauss(0, 0.00002),
                     23.0 + rng.gauss(0, 0.00002))
            for i in range(60)
        ]
        tolerance = 15.0
        out = simplify_trace(points, tolerance_m=tolerance)
        kept = set((p.lat, p.lon) for p in out)
        # Every dropped point is within tolerance of the kept polyline.
        for p in points:
            if (p.lat, p.lon) in kept:
                continue
            best = min(
                _perpendicular_distance_m(p, a, b)
                for a, b in zip(out, out[1:])
            )
            assert best <= tolerance + 0.5

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError):
            simplify_trace([], 0.0)


# ----------------------------------------------------------------- scheduler


class TestPeriodicScheduler:
    def test_fires_on_schedule(self):
        fired = []
        sched = PeriodicScheduler()
        sched.register("job", period_s=10.0, callback=fired.append)
        log = sched.advance_to(35.0)
        assert fired == [10.0, 20.0, 30.0]
        assert [t for t, _n, _r in log] == [10.0, 20.0, 30.0]
        assert sched.job("job").fire_count == 3

    def test_catch_up_semantics(self):
        fired = []
        sched = PeriodicScheduler()
        sched.register("job", period_s=5.0, callback=fired.append)
        sched.advance_to(4.0)
        assert fired == []
        sched.advance_to(21.0)
        assert fired == [5.0, 10.0, 15.0, 20.0]

    def test_multiple_jobs_in_time_order(self):
        order = []
        sched = PeriodicScheduler()
        sched.register("fast", 3.0, lambda now: order.append(("fast", now)))
        sched.register("slow", 7.0, lambda now: order.append(("slow", now)))
        sched.advance_to(10.0)
        assert order == [
            ("fast", 3.0), ("fast", 6.0), ("slow", 7.0), ("fast", 9.0),
        ]

    def test_disable_enable(self):
        fired = []
        sched = PeriodicScheduler()
        sched.register("job", 5.0, fired.append)
        sched.set_enabled("job", False)
        sched.advance_to(20.0)
        assert fired == []
        sched.set_enabled("job", True)
        sched.advance_to(40.0)
        assert fired  # resumes

    def test_time_cannot_reverse(self):
        sched = PeriodicScheduler(start_at=100.0)
        with pytest.raises(ValidationError):
            sched.advance_to(50.0)

    def test_duplicate_name_rejected(self):
        sched = PeriodicScheduler()
        sched.register("job", 1.0, lambda now: None)
        with pytest.raises(ValidationError):
            sched.register("job", 1.0, lambda now: None)

    def test_platform_scheduler_wiring(self):
        platform = MoDisSENSE(PlatformConfig.small())
        try:
            sched = build_platform_scheduler(platform, start_at=0.0)
            # The production profile: the paper's three periodic
            # modules (HotIn as the reconcile pass) plus every
            # subsystem's maintenance job.
            assert set(sched._jobs) == {
                "data_collection", "hotin_reconcile", "event_detection",
                "ingest_rebalance", "telemetry_scrape",
                "cache_maintenance", "supervisor_heartbeat",
                "storage_scrub", "admission_tick",
            }
            # One collection period passes: the job runs (on an empty
            # platform it reports zero users).
            log = sched.advance_by(DATA_COLLECTION_PERIOD_S)
            assert any(name == "data_collection" for _t, name, _r in log)
            report = sched.job("data_collection").last_result
            assert report.users_scanned == 0
        finally:
            platform.shutdown()


# ---------------------------------------------------------------- monitoring


class TestMonitoring:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for v in range(1, 101):
            hist.record(float(v))
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(50) == pytest.approx(50.0, abs=1)
        assert hist.percentile(95) == pytest.approx(95.0, abs=1)
        assert hist.max_value == 100.0

    def test_histogram_decimation_keeps_shape(self):
        hist = LatencyHistogram(max_samples=100)
        for v in range(1000):
            hist.record(float(v))
        assert hist.count == 1000
        assert 400 < hist.percentile(50) < 600

    def test_histogram_validation(self):
        with pytest.raises(ValidationError):
            LatencyHistogram(max_samples=5)
        hist = LatencyHistogram()
        with pytest.raises(ValidationError):
            hist.record(-1.0)
        with pytest.raises(ValidationError):
            hist.percentile(0.0)

    def test_metrics_snapshot(self):
        metrics = PlatformMetrics()
        metrics.increment("queries", 3)
        metrics.record_latency("q", 5.0)
        snap = metrics.snapshot()
        assert snap["counters"]["queries"] == 3
        assert snap["latencies"]["q"]["count"] == 1

    def test_instrumented_query_answering(self, small_platform, small_pois):
        from repro import SearchQuery
        from repro.core.repositories.visits import VisitStruct

        small_platform.load_pois(small_pois[:50])
        small_platform.visits_repository.store(
            VisitStruct(user_id=1, poi_id=1, timestamp=10, grade=0.9,
                        poi_name="A", lat=37.0, lon=23.0)
        )
        qa = small_platform.query_answering
        qa.search(SearchQuery(friend_ids=(1,)))
        qa.search(SearchQuery(sort_by="hotness"))
        assert qa.metrics is small_platform.metrics
        snap = qa.metrics.snapshot()
        assert snap["counters"]["queries.personalized"] == 1
        assert snap["counters"]["queries.non_personalized"] == 1
        assert snap["latencies"]["query.personalized"]["count"] == 1
        # Query-path profiling counters are recorded by the module.
        assert snap["counters"]["cells.merged"] == 1
        assert snap["counters"]["cells.decoded"] == 1
        assert snap["counters"]["regions.used"] == 1
        regions = len(small_platform.visits_repository.table.regions)
        assert snap["counters"]["regions.pruned"] == regions - 1
        assert qa.pois is small_platform.poi_repository

    def test_personalized_latency_labeled_by_fanout_width(
        self, small_platform, small_pois
    ):
        from repro import SearchQuery
        from repro.core.repositories.visits import VisitStruct

        small_platform.load_pois(small_pois[:50])
        small_platform.visits_repository.store(
            VisitStruct(user_id=1, poi_id=1, timestamp=10, grade=0.9,
                        poi_name="A", lat=37.0, lon=23.0)
        )
        result = small_platform.query_answering.search(
            SearchQuery(friend_ids=(1,))
        )
        snap = small_platform.metrics.snapshot()
        labeled = "query.personalized{regions=%d}" % result.regions_used
        assert snap["latencies"][labeled]["count"] == 1
        # The unlabeled series records the same traffic in aggregate.
        assert snap["latencies"]["query.personalized"]["count"] == 1


class TestPercentileNearestRank:
    """Nearest-rank boundary behaviour on tiny sample sets (the seed's
    ``round()`` indexing made ``percentile(50)`` of ``[1, 2, 3, 4]``
    depend on banker's rounding)."""

    @staticmethod
    def build(values):
        hist = LatencyHistogram()
        for v in values:
            hist.record(float(v))
        return hist

    def test_documented_example(self):
        hist = self.build([1, 2, 3, 4])
        # rank = ceil(0.5 * 4) = 2 -> second smallest.
        assert hist.percentile(50) == 2.0
        assert hist.percentile(95) == 4.0
        assert hist.percentile(99) == 4.0
        assert hist.percentile(100) == 4.0
        # Low percentiles clamp at the smallest sample.
        assert hist.percentile(1) == 1.0

    def test_single_sample_returns_it_for_every_p(self):
        hist = self.build([42.5])
        for p in (1, 50, 95, 99, 100):
            assert hist.percentile(p) == 42.5

    def test_two_and_three_samples(self):
        two = self.build([10, 20])
        assert two.percentile(50) == 10.0  # rank ceil(1.0) = 1
        assert two.percentile(51) == 20.0  # rank ceil(1.02) = 2
        assert two.percentile(99) == 20.0
        three = self.build([5, 6, 7])
        assert three.percentile(50) == 6.0
        assert three.percentile(95) == 7.0

    def test_unordered_input_is_sorted(self):
        hist = self.build([9, 1, 5, 3, 7])
        assert hist.percentile(50) == 5.0
        assert hist.percentile(20) == 1.0

    def test_empty_histogram_is_zero(self):
        assert LatencyHistogram().percentile(50) == 0.0


class TestMetricsThreadSafety:
    """The registry is hammered from concurrent client and ingest
    threads; lost updates showed up as drifting counters."""

    def test_concurrent_increments_are_exact(self):
        import threading

        metrics = PlatformMetrics()
        threads_n, per_thread = 8, 2000
        barrier = threading.Barrier(threads_n)

        def hammer(tid):
            barrier.wait()  # maximize interleaving
            for i in range(per_thread):
                metrics.increment("queries.personalized")
                metrics.increment("records.scanned", 3)
                metrics.increment("by_thread", labels={"tid": tid})
                metrics.record_latency("query.personalized", float(i % 50))
                metrics.set_gauge("last_tid", tid)

        threads = [
            threading.Thread(target=hammer, args=(tid,))
            for tid in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = threads_n * per_thread
        assert metrics.counter("queries.personalized") == total
        assert metrics.counter("records.scanned") == 3 * total
        for tid in range(threads_n):
            assert metrics.counter("by_thread", labels={"tid": tid}) == per_thread
        hist = metrics.histogram("query.personalized")
        assert hist.count == total
        expected_total = threads_n * sum(float(i % 50) for i in range(per_thread))
        assert hist.total == pytest.approx(expected_total)
        assert metrics.gauge("last_tid") in range(threads_n)

    def test_concurrent_histogram_records_are_exact(self):
        import threading

        hist = LatencyHistogram(max_samples=100)
        threads_n, per_thread = 6, 3000

        def hammer():
            for i in range(per_thread):
                hist.record(float(i))

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == threads_n * per_thread
        assert hist.max_value == float(per_thread - 1)
        assert hist.total == pytest.approx(
            threads_n * per_thread * (per_thread - 1) / 2.0
        )
        # The reservoir stayed within bounds and percentiles still work.
        assert 0.0 <= hist.percentile(50) <= per_thread

    def test_batch_executor_path_counts_exactly(self, small_platform, small_pois):
        """End-to-end regression: a ``search_personalized_batch`` of 12
        queries must leave exact counter totals."""
        from repro import SearchQuery
        from repro.core.repositories.visits import VisitStruct

        small_platform.load_pois(small_pois[:50])
        for uid in range(1, 9):
            small_platform.visits_repository.store(
                VisitStruct(user_id=uid, poi_id=1 + uid % 5, timestamp=10 + uid,
                            grade=0.9, poi_name="A", lat=37.0, lon=23.0)
            )
        queries = [
            SearchQuery(friend_ids=tuple(range(1, 9))) for _ in range(12)
        ]
        results = small_platform.query_answering.search_personalized_batch(
            queries
        )
        snap = small_platform.metrics.snapshot()
        assert snap["counters"]["queries.personalized"] == 12
        assert snap["counters"]["records.scanned"] == sum(
            r.records_scanned for r in results
        )
        assert snap["latencies"]["query.personalized"]["count"] == 12


class TestPrometheusExposition:
    def test_counter_gauge_summary_rendering(self):
        metrics = PlatformMetrics()
        metrics.increment("queries.personalized", 7)
        metrics.increment("api.requests", 2, labels={"endpoint": "search"})
        metrics.set_gauge("jobs.active", 3)
        metrics.record_latency("query.personalized", 10.0)
        metrics.record_latency("query.personalized", 20.0)
        text = metrics.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE modissense_queries_personalized_total counter" in lines
        assert "modissense_queries_personalized_total 7" in lines
        assert (
            'modissense_api_requests_total{endpoint="search"} 2' in lines
        )
        assert "modissense_jobs_active 3" in lines
        assert "# TYPE modissense_query_personalized_ms summary" in lines
        assert (
            'modissense_query_personalized_ms{quantile="0.5"} 10' in lines
        )
        assert "modissense_query_personalized_ms_sum 30" in lines
        assert "modissense_query_personalized_ms_count 2" in lines
        assert text.endswith("\n")

    def test_label_escaping_and_name_sanitization(self):
        metrics = PlatformMetrics()
        metrics.increment("weird.name-1", labels={"q": 'say "hi"\nnow'})
        text = metrics.to_prometheus()
        assert 'modissense_weird_name_1_total{q="say \\"hi\\"\\nnow"} 1' in text

    def test_hostile_label_values_roundtrip(self):
        # Regression: backslashes must be escaped FIRST (a single-pass
        # translation), or 'a\nb' -> 'a\\nb' -> double-mangled output.
        metrics = PlatformMetrics()
        hostile = 'back\\slash "quote"\nnewline\\n'
        metrics.increment("evil", labels={"v": hostile})
        text = metrics.to_prometheus()
        assert (
            'modissense_evil_total{v="back\\\\slash \\"quote\\"'
            '\\nnewline\\\\n"} 1' in text
        )
        # Parse it back the way a scraper would: unescape and compare.
        import re

        match = re.search(r'\{v="((?:[^"\\]|\\.)*)"\}', text)
        assert match is not None
        unescaped = (
            match.group(1)
            .replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\x00", "\\")
        )
        assert unescaped == hostile

    def test_lone_backslash_label(self):
        metrics = PlatformMetrics()
        metrics.increment("evil", labels={"v": "\\"})
        assert 'v="\\\\"' in metrics.to_prometheus()

    def test_non_finite_gauge_values_render_as_tokens(self):
        # Regression: int(nan) raised and crashed the whole exposition.
        metrics = PlatformMetrics()
        metrics.set_gauge("weird.nan", float("nan"))
        metrics.set_gauge("weird.posinf", float("inf"))
        metrics.set_gauge("weird.neginf", float("-inf"))
        text = metrics.to_prometheus()
        assert "modissense_weird_nan NaN" in text
        assert "modissense_weird_posinf +Inf" in text
        assert "modissense_weird_neginf -Inf" in text

    def test_empty_registry_renders_empty(self):
        assert PlatformMetrics().to_prometheus() == ""
