"""Tests for the end-to-end tracing subsystem.

Covers the :mod:`repro.core.tracing` primitives (span trees, ring
buffers, the slow-query log, thread safety, the disabled no-op path) and
trace-context *propagation*: a personalized query must yield one root
span whose region children carry simulated costs summing to the fan-out
total, with pruning tags matching ``explain_personalized``; batch jobs
(scheduler firings, MapReduce runs) must emit their own span trees.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import ConfigError, PlatformConfig, TracingConfig
from repro.core import MoDisSENSE, SearchQuery
from repro.core.modules.query_answering import QueryAnsweringModule
from repro.core.monitoring import PlatformMetrics
from repro.core.scheduler import PeriodicScheduler
from repro.core.tracing import NOOP_SPAN, NULL_TRACER, Tracer
from repro.core.repositories.visits import VisitStruct
from repro.errors import ValidationError
from repro.mapreduce import JobRunner, MapReduceJob


class FakeClock:
    """Deterministic seconds clock for duration assertions."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, seconds: float) -> None:
        self.t += seconds

    def __call__(self) -> float:
        return self.t


# ------------------------------------------------------------- tracer unit


class TestTracerUnit:
    def test_single_span_becomes_a_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.span("query", friends=3)
        clock.advance(0.010)
        span.finish()
        trace = tracer.last_trace()
        assert trace["root"]["name"] == "query"
        assert trace["root"]["tags"] == {"friends": 3}
        assert trace["root"]["children"] == []
        assert trace["duration_ms"] == pytest.approx(10.0)
        assert trace["span_count"] == 1
        assert trace["stages"] == ["query"]

    def test_nested_tree_assembly_and_child_order(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        root = tracer.span("root")
        clock.advance(0.001)
        a = tracer.span("a", parent=root)
        clock.advance(0.002)
        a.finish()
        b = tracer.span("b", parent=root)
        grandchild = tracer.span("c", parent=b)
        clock.advance(0.003)
        grandchild.finish()
        b.finish()
        clock.advance(0.001)
        root.finish()

        trace = tracer.last_trace()
        assert trace["span_count"] == 4
        assert trace["stages"] == ["a", "b", "c"] or trace["stages"] == [
            "a", "b", "c", "root"
        ]
        tree = trace["root"]
        assert [child["name"] for child in tree["children"]] == ["a", "b"]
        (c_node,) = tree["children"][1]["children"]
        assert c_node["name"] == "c"
        assert tree["duration_ms"] == pytest.approx(7.0)
        assert tree["children"][0]["duration_ms"] == pytest.approx(2.0)
        # Children are ordered by start time, not finish order.
        assert tree["children"][0]["start_ms"] <= tree["children"][1]["start_ms"]

    def test_span_ids_link_parent_and_trace(self):
        tracer = Tracer()
        root = tracer.span("root")
        child = tracer.span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_context_manager_finishes_and_tags_errors(self):
        tracer = Tracer()
        with tracer.span("ok") as span:
            span.tag("k", "v")
        assert tracer.last_trace()["root"]["tags"] == {"k": "v"}
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("exploded")
        trace = tracer.last_trace()
        assert trace["root"]["name"] == "boom"
        assert "exploded" in trace["root"]["tags"]["error"]

    def test_double_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once")
        span.finish()
        span.finish()
        assert len(tracer.recent_traces()) == 1

    def test_ring_buffer_bounds_recent_traces(self):
        tracer = Tracer(max_traces=4)
        for i in range(10):
            tracer.span("q%d" % i).finish()
        traces = tracer.recent_traces()
        assert len(traces) == 4
        # Newest first, oldest evicted.
        assert [t["root"]["name"] for t in traces] == ["q9", "q8", "q7", "q6"]
        assert tracer.recent_traces(limit=2)[0]["root"]["name"] == "q9"
        assert tracer.recent_traces(limit=0) == []

    def test_orphan_traces_are_evicted(self):
        tracer = Tracer(max_traces=1)  # pending limit = 4
        roots = [tracer.span("r%d" % i) for i in range(7)]
        for root in roots:
            tracer.span("child", parent=root).finish()  # root never finishes
        assert tracer.describe()["pending_traces"] <= 4
        assert tracer.dropped_traces == 3

    def test_slow_query_log(self):
        clock = FakeClock()
        tracer = Tracer(slow_threshold_ms=100.0, clock=clock)
        fast = tracer.span("fast")
        clock.advance(0.005)
        fast.finish()
        slow = tracer.span("slow")
        clock.advance(0.500)
        slow.finish()
        assert len(tracer.recent_traces()) == 2
        slow_log = tracer.slow_queries()
        assert [t["root"]["name"] for t in slow_log] == ["slow"]

    def test_slow_log_prefers_latency_ms_tag(self):
        """Simulated latency (the paper's cost model) can cross the
        threshold even when wall time does not — and vice versa."""
        clock = FakeClock()
        tracer = Tracer(slow_threshold_ms=100.0, clock=clock)
        # Wall-fast but simulated-slow: logged.
        tracer.span("sim_slow", latency_ms=350.0).finish()
        # Wall-slow but simulated-fast: not logged.
        wall = tracer.span("sim_fast", latency_ms=2.0)
        clock.advance(0.400)
        wall.finish()
        assert [t["root"]["name"] for t in tracer.slow_queries()] == ["sim_slow"]

    def test_slow_log_ring_is_bounded(self):
        tracer = Tracer(slow_threshold_ms=0.0, slow_log_size=3)
        for i in range(8):
            tracer.span("s%d" % i).finish()
        assert len(tracer.slow_queries()) == 3

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", key="value")
        assert span is NOOP_SPAN
        assert span.tag("more", 1) is span
        with span:
            pass
        span.finish()
        assert tracer.recent_traces() == []
        assert tracer.last_trace() is None
        assert tracer.describe()["enabled"] is False
        # Children of a no-op parent start fresh traces when re-enabled
        # producers hand NOOP_SPAN around; on the disabled path nothing
        # is recorded at all.
        assert NULL_TRACER.span("x", parent=span) is NOOP_SPAN

    def test_clear_resets_buffers(self):
        tracer = Tracer(slow_threshold_ms=0.0)
        tracer.span("a").finish()
        tracer.clear()
        assert tracer.recent_traces() == []
        assert tracer.slow_queries() == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            Tracer(max_traces=0)
        with pytest.raises(ValidationError):
            Tracer(slow_log_size=0)
        with pytest.raises(ValidationError):
            Tracer(slow_threshold_ms=-1.0)

    def test_from_config(self):
        tracer = Tracer.from_config(TracingConfig())
        assert tracer.enabled is True
        assert tracer.slow_threshold_ms == pytest.approx(250.0)
        off = Tracer.from_config(TracingConfig(enabled=False))
        assert off.span("x") is NOOP_SPAN

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TracingConfig(max_traces=0)
        with pytest.raises(ConfigError):
            TracingConfig(slow_log_size=0)
        with pytest.raises(ConfigError):
            TracingConfig(slow_query_threshold_ms=-5.0)

    def test_concurrent_traces_do_not_interleave(self):
        """N threads each produce whole traces concurrently; every
        assembled tree must contain exactly its own spans."""
        tracer = Tracer(max_traces=1024)
        threads, errors = [], []

        def produce(tid):
            try:
                for i in range(50):
                    root = tracer.span("root-%d" % tid, thread=tid)
                    for name in ("scan", "merge", "rank"):
                        tracer.span(name, parent=root).finish()
                    root.finish()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        for tid in range(8):
            thread = threading.Thread(target=produce, args=(tid,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        traces = tracer.recent_traces()
        assert len(traces) == 8 * 50
        for trace in traces:
            assert trace["span_count"] == 4
            tid = trace["root"]["tags"]["thread"]
            assert trace["root"]["name"] == "root-%d" % tid
            assert sorted(c["name"] for c in trace["root"]["children"]) == [
                "merge", "rank", "scan",
            ]
        assert tracer.describe()["pending_traces"] == 0


# ------------------------------------------------------- query propagation


@pytest.fixture()
def traced_platform(small_platform, small_pois):
    """A small platform with visits for users 1..12 over 30 POIs."""
    small_platform.load_pois(small_pois[:30])
    for uid in range(1, 13):
        for k in range(3):
            poi = small_pois[(uid * 3 + k) % 30]
            small_platform.visits_repository.store(VisitStruct(
                user_id=uid, poi_id=poi.poi_id,
                timestamp=1000 + uid * 10 + k,
                grade=0.5 + 0.01 * uid,
                poi_name=poi.name, lat=poi.lat, lon=poi.lon,
                keywords=tuple(poi.keywords),
            ))
    return small_platform


def _find_all(node, name, out=None):
    if out is None:
        out = []
    if node["name"] == name:
        out.append(node)
    for child in node["children"]:
        _find_all(child, name, out)
    return out


def _find_one(node, name):
    (found,) = _find_all(node, name)
    return found


QUERY = SearchQuery(friend_ids=tuple(range(1, 13)), sort_by="interest",
                    limit=10)


class TestQueryTracePropagation:
    def test_personalized_query_emits_full_span_tree(self, traced_platform):
        result = traced_platform.query_answering.search(QUERY)
        assert result.pois  # the query actually found something
        trace = traced_platform.tracer.last_trace()
        assert trace is not None
        root = trace["root"]
        assert root["name"] == "query.personalized"
        # The acceptance bar: >= 4 distinct stage names in one tree.
        stages = set(trace["stages"])
        assert {"route", "fanout", "region.scan", "merge", "rank"} <= stages
        assert {"region.aggregate", "region.sort"} <= stages
        # Client-side stages hang off the root in execution order.
        top = [child["name"] for child in root["children"]]
        assert top == ["route", "fanout", "rank"]
        # Region scans and the cross-region merge are children of the
        # fan-out; the coprocessor's cache-lookup/aggregate/sort stages
        # nest under their region scan.
        fanout = _find_one(root, "fanout")
        merge = [c for c in fanout["children"] if c["name"] == "merge"]
        assert len(merge) == 1
        assert merge[0]["tags"]["pois"] == len(result.pois)
        scans = _find_all(fanout, "region.scan")
        assert len(scans) == result.regions_used
        for scan in scans:
            names = {child["name"] for child in scan["children"]}
            assert names == {
                "cache.lookup", "region.aggregate", "region.sort"
            }
        # Root carries the result's headline numbers.
        assert root["tags"]["latency_ms"] == pytest.approx(result.latency_ms)
        assert root["tags"]["records_scanned"] == result.records_scanned
        assert root["tags"]["regions_used"] == result.regions_used

    def test_merge_span_times_the_merge(self, traced_platform, monkeypatch):
        from repro.core.modules.topk import TopKMerger

        merge = TopKMerger.merge

        def slow_merge(self, *args, **kwargs):
            time.sleep(0.02)
            return merge(self, *args, **kwargs)

        monkeypatch.setattr(TopKMerger, "merge", slow_merge)
        traced_platform.query_answering.search(QUERY)
        fanout = _find_one(traced_platform.tracer.last_trace()["root"], "fanout")
        assert _find_one(fanout, "merge")["duration_ms"] >= 20.0

    def test_region_children_sum_to_fanout_total(self, traced_platform):
        traced_platform.query_answering.search(QUERY)
        trace = traced_platform.tracer.last_trace()
        fanout = _find_one(trace["root"], "fanout")
        scans = _find_all(fanout, "region.scan")
        child_cost = sum(scan["tags"]["sim_cost_ms"] for scan in scans)
        assert child_cost == pytest.approx(
            fanout["tags"]["sim_region_cost_ms_total"], rel=1e-9
        )
        # The straggler is the most expensive region child.
        worst = max(scans, key=lambda s: s["tags"]["sim_cost_ms"])
        assert fanout["tags"]["straggler_region"] == worst["tags"]["region_id"]
        assert fanout["tags"]["straggler_cost_ms"] == pytest.approx(
            worst["tags"]["sim_cost_ms"]
        )
        assert fanout["tags"]["straggler_node"] == worst["tags"]["node"]

    def test_regions_pruned_tag_matches_explain(self, traced_platform):
        qa = traced_platform.query_answering
        qa.search(QUERY)
        trace = traced_platform.tracer.last_trace()
        explain = qa.explain_personalized(QUERY)
        root = trace["root"]
        fanout = _find_one(root, "fanout")
        assert root["tags"]["regions_pruned"] == explain["regions_pruned"]
        assert fanout["tags"]["regions_pruned"] == explain["regions_pruned"]
        assert fanout["tags"]["regions_used"] == len(explain["regions"])
        # Per-region scan tags agree with the EXPLAIN breakdown.
        by_region = {r["region_id"]: r for r in explain["regions"]}
        for scan in _find_all(fanout, "region.scan"):
            expect = by_region[scan["tags"]["region_id"]]
            assert scan["tags"]["records_scanned"] == expect["records_scanned"]
            assert scan["tags"]["node"] == expect["node"]

    def test_region_scan_intervals_nest_within_fanout(self, traced_platform):
        traced_platform.query_answering.search(QUERY)
        trace = traced_platform.tracer.last_trace()
        fanout = _find_one(trace["root"], "fanout")
        fanout_end = fanout["start_ms"] + fanout["duration_ms"]
        previous_end = fanout["start_ms"]
        for scan in _find_all(fanout, "region.scan"):
            # Regions run one after another in the calling thread, in
            # region order: no scan starts before the previous ended.
            assert scan["start_ms"] >= previous_end - 1e-6
            previous_end = scan["start_ms"] + scan["duration_ms"]
            assert previous_end <= fanout_end + 1e-6

    def test_aborted_query_still_publishes_its_trace(self, traced_platform):
        """Regression: a fan-out that raised (strict deadline) left the
        ``query.personalized`` and ``fanout`` spans unfinished, so the
        trace never reached ``recent_traces``/``admin_traces`` and its
        finished children sat in ``Tracer._pending``."""
        from repro import RestApi

        tracer = traced_platform.tracer
        tracer.clear()
        traced_platform.hbase.faults_config.strict_deadline = True
        api = RestApi(traced_platform)
        response = api.handle("search", {
            "friend_ids": list(QUERY.friend_ids), "deadline_ms": 0.001,
        })
        assert response["status"] == "error"
        assert tracer._pending == {}
        (trace,) = tracer.recent_traces()
        root = trace["root"]
        assert root["name"] == "query.personalized"
        assert root["tags"]["error"] == "QueryDeadlineExceeded"
        fanout = _find_one(root, "fanout")
        assert fanout["tags"]["error"] == "QueryDeadlineExceeded"
        assert _find_all(fanout, "region.scan")
        listed = api.handle("admin_traces", {})["data"]["traces"]
        assert [t["trace_id"] for t in listed] == [trace["trace_id"]]

    def test_disabled_tracing_gives_identical_results(self, traced_platform):
        """Spans only observe: with the tracer off (or on) the ranked
        answer, scores and profiling counters must not change."""
        traced = traced_platform.query_answering
        untraced = QueryAnsweringModule(
            traced_platform.poi_repository,
            traced_platform.visits_repository,
            tracer=NULL_TRACER,
            topk_config=traced_platform.config.topk,
        )
        for query in (
            QUERY,
            SearchQuery(friend_ids=(1, 2, 3), sort_by="hotness"),
            SearchQuery(friend_ids=(5,), keywords=()),
        ):
            a = traced.search(query)
            b = untraced.search(query)
            assert [(p.poi_id, p.score, p.visit_count) for p in a.pois] == [
                (p.poi_id, p.score, p.visit_count) for p in b.pois
            ]
            assert a.latency_ms == b.latency_ms
            assert a.records_scanned == b.records_scanned
            assert a.regions_used == b.regions_used
            assert a.regions_pruned == b.regions_pruned

    def test_tracing_disabled_platform_records_nothing(self, small_pois):
        config = PlatformConfig.small()
        config.tracing.enabled = False
        platform = MoDisSENSE(config)
        try:
            platform.load_pois(small_pois[:10])
            platform.visits_repository.store(VisitStruct(
                user_id=1, poi_id=small_pois[0].poi_id, timestamp=10,
                grade=0.9, poi_name=small_pois[0].name,
                lat=small_pois[0].lat, lon=small_pois[0].lon,
            ))
            platform.query_answering.search(SearchQuery(friend_ids=(1,)))
            assert platform.tracer.recent_traces() == []
            assert platform.describe()["tracing"]["enabled"] is False
        finally:
            platform.shutdown()

    def test_non_personalized_query_traced(self, traced_platform):
        traced_platform.query_answering.search(SearchQuery(sort_by="hotness"))
        trace = traced_platform.tracer.last_trace()
        assert trace["root"]["name"] == "query.non_personalized"


# --------------------------------------------------------------- batch tier


class TestBatchTracing:
    def test_scheduler_firings_emit_spans_and_metrics(self):
        tracer = Tracer()
        metrics = PlatformMetrics()
        sched = PeriodicScheduler(tracer=tracer, metrics=metrics)
        sched.register("tick", 10.0, lambda now: now)
        sched.advance_by(30.0)  # fires at t=10, 20, 30
        traces = [
            t for t in tracer.recent_traces()
            if t["root"]["name"] == "scheduler.job"
        ]
        assert len(traces) == 3
        assert traces[0]["root"]["tags"]["job"] == "tick"
        assert {t["root"]["tags"]["fire_at"] for t in traces} == {10.0, 20.0, 30.0}
        assert metrics.counter("scheduler.fired", labels={"job": "tick"}) == 3
        hist = metrics.histogram("scheduler.job_wall", labels={"job": "tick"})
        assert hist.count == 3

    def test_mapreduce_run_emits_phase_spans(self):
        tracer = Tracer()
        metrics = PlatformMetrics()

        def mapper(record, emit, counters):
            for word in record.split():
                emit(word, 1)

        def reducer(key, values, emit, counters):
            emit(key, sum(values))

        job = MapReduceJob(name="wc", mapper=mapper, reducer=reducer,
                           num_mappers=2, num_reducers=2)
        runner = JobRunner(tracer=tracer, metrics=metrics)
        result = runner.run(job, ["a b a", "b c", "a"])
        trace = tracer.last_trace()
        root = trace["root"]
        assert root["name"] == "mapreduce.job"
        assert root["tags"] == {"job": "wc", "records": 3}
        assert [c["name"] for c in root["children"]] == [
            "map", "shuffle", "reduce",
        ]
        assert _find_one(root, "map")["tags"]["tasks"] == result.map_tasks
        assert _find_one(root, "shuffle")["tags"]["pairs"] == 6
        assert _find_one(root, "reduce")["tags"]["tasks"] == result.reduce_tasks
        assert metrics.counter("mapreduce.jobs", labels={"job": "wc"}) == 1
        assert metrics.gauge(
            "mapreduce.last_output_pairs", labels={"job": "wc"}
        ) == len(result.pairs)

    def test_mapreduce_without_tracer_still_works(self):
        def mapper(record, emit, counters):
            emit(record % 2, record)

        def reducer(key, values, emit, counters):
            emit(key, sum(values))

        job = MapReduceJob(name="plain", mapper=mapper, reducer=reducer)
        runner = JobRunner()
        result = runner.run(job, list(range(10)))
        assert dict(result.pairs) == {0: 20, 1: 25}
