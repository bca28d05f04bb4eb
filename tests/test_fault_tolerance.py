"""Fault-tolerance tests: node failure, recovery, fault injection,
resilient fan-out (retries/hedges/breaker), graceful degradation and
web-tier balancing."""

import hashlib
import itertools
import threading

import pytest

from repro.cluster import ClusterSimulation, MergeWork, Task, WebServerFarm
from repro.config import ClusterConfig, FaultsConfig, PlatformConfig
from repro.core.faults import FAULT_ERROR, FAULT_HANG, FaultInjector
from repro.core.modules.query_answering import QueryAnsweringModule, SearchQuery
from repro.core.monitoring import PlatformMetrics
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.errors import (
    ConfigError,
    DegradedResultWarning,
    QueryDeadlineExceeded,
)
from repro.hbase import HBaseCluster
from repro.sqlstore import SqlEngine


def _result_fingerprint(result):
    """Everything a caller can observe about a SearchResult."""
    return (
        [(p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
         for p in result.pois],
        result.personalized,
        result.latency_ms,
        result.records_scanned,
        result.regions_used,
        result.regions_pruned,
        result.cells_decoded,
        result.degraded,
        result.missing_regions,
        result.coverage,
    )


def _build_qa(num_nodes=4, regions=8, users=40):
    """A small query stack over a real fan-out cluster."""
    cluster = HBaseCluster(
        ClusterConfig(num_nodes=num_nodes, regions_per_table=regions)
    )
    pois = POIRepository(SqlEngine())
    pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                 keywords=("x",), category="cafe"))
    visits = VisitsRepository(cluster, num_regions=regions)
    for uid in range(1, users):
        visits.store(VisitStruct(user_id=uid, poi_id=1, timestamp=uid,
                                 grade=0.5, poi_name="A",
                                 lat=37.98, lon=23.73, keywords=("x",)))
    qa = QueryAnsweringModule(pois, visits)
    query = SearchQuery(friend_ids=tuple(range(1, users)), sort_by="hotness")
    return cluster, qa, query


class TestNodeFailure:
    def _sim(self, nodes=4, regions=8):
        sim = ClusterSimulation(ClusterConfig(num_nodes=nodes))
        sim.place_regions(list(range(regions)))
        return sim

    def test_failed_nodes_regions_move(self):
        sim = self._sim()
        owned = [r for r, n in sim.region_placement.items() if n == 0]
        moved = sim.fail_node(0)
        assert moved == sorted(owned)
        for region, node in sim.region_placement.items():
            assert node != 0
        assert sim.live_node_count == 3

    def test_double_failure_is_noop(self):
        sim = self._sim()
        sim.fail_node(0)
        assert sim.fail_node(0) == []

    def test_cannot_fail_last_node(self):
        sim = self._sim(nodes=2)
        sim.fail_node(0)
        with pytest.raises(ConfigError):
            sim.fail_node(1)

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigError):
            self._sim().fail_node(99)

    def test_latency_degrades_then_recovers(self):
        sim = self._sim(nodes=4, regions=16)
        tasks = [Task(region_id=r, records_scanned=5000) for r in range(16)]
        healthy = sim.run_query(tasks).latency_s
        sim.fail_node(0)
        sim.fail_node(1)
        degraded = sim.run_query(tasks).latency_s
        assert degraded > healthy
        sim.recover_node(0)
        sim.recover_node(1)
        recovered = sim.run_query(tasks).latency_s
        assert recovered == pytest.approx(healthy, rel=0.01)

    def test_placement_only_on_live_nodes_after_replace(self):
        sim = self._sim()
        sim.fail_node(2)
        placement = sim.place_regions(list(range(12)))
        assert 2 not in placement.values()


class TestQueryCorrectnessUnderFailure:
    def test_personalized_query_exact_after_node_loss(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=4, regions_per_table=8))
        pois = POIRepository(SqlEngine())
        pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                     keywords=("x",), category="cafe"))
        visits = VisitsRepository(cluster, num_regions=8)
        for uid in range(1, 20):
            visits.store(VisitStruct(user_id=uid, poi_id=1, timestamp=uid,
                                     grade=0.5, poi_name="A",
                                     lat=37.98, lon=23.73, keywords=("x",)))
        qa = QueryAnsweringModule(pois, visits)
        query = SearchQuery(friend_ids=tuple(range(1, 20)), sort_by="hotness")

        before = qa.search(query)
        cluster.fail_node(0)
        after = qa.search(query)
        # Identical answers, degraded latency.
        assert [p.poi_id for p in after.pois] == [p.poi_id for p in before.pois]
        assert after.pois[0].visit_count == 19
        assert after.latency_ms > before.latency_ms


class TestFaultInjectorDeterminism:
    def _decision_trace(self, seed, epochs=6, regions=8, attempts=3):
        injector = FaultInjector(FaultsConfig(
            enabled=True, seed=seed,
            region_error_rate=0.3, region_hang_rate=0.2, corrupt_rate=0.1,
        ))
        trace = []
        for _ in range(epochs):
            injector.on_fanout_start(None)
            for region in range(regions):
                for attempt in range(attempts):
                    fault = injector.decide(region, region % 4, attempt)
                    trace.append(None if fault is None else fault.kind)
        return trace

    def test_same_seed_same_decisions(self):
        assert self._decision_trace(7) == self._decision_trace(7)

    def test_different_seed_different_decisions(self):
        assert self._decision_trace(7) != self._decision_trace(8)

    def test_decisions_independent_of_call_order(self):
        """Thread interleaving must not perturb outcomes: querying the
        same (epoch, region, attempt) in any order gives the same fault."""
        a = FaultInjector(FaultsConfig(enabled=True, seed=3,
                                       region_error_rate=0.5))
        b = FaultInjector(FaultsConfig(enabled=True, seed=3,
                                       region_error_rate=0.5))
        a.on_fanout_start(None)
        b.on_fanout_start(None)
        keys = [(r, 0) for r in range(16)]
        forward = {k: a.decide(k[0], 0, k[1]) for k in keys}
        backward = {k: b.decide(k[0], 0, k[1]) for k in reversed(keys)}
        assert {k: v and v.kind for k, v in forward.items()} == \
               {k: v and v.kind for k, v in backward.items()}

    def test_break_region_is_one_shot(self):
        injector = FaultInjector(FaultsConfig(enabled=True))
        injector.break_region(5, times=2)
        assert injector.decide(5, 0, 0).kind == FAULT_ERROR
        assert injector.decide(5, 0, 1).kind == FAULT_ERROR
        assert injector.decide(5, 0, 2) is None
        assert injector.decide(6, 0, 0) is None

    def test_jitter_is_deterministic_and_bounded(self):
        cfg = FaultsConfig(enabled=True, seed=11, retry_jitter_ms=2.0)
        a, b = FaultInjector(cfg), FaultInjector(cfg)
        for region in range(8):
            ja = a.backoff_jitter_ms(region, 1)
            assert ja == b.backoff_jitter_ms(region, 1)
            assert 0.0 <= ja <= 2.0

    def test_schedule_validation(self):
        injector = FaultInjector(FaultsConfig(enabled=True))
        with pytest.raises(ConfigError):
            injector.schedule_node_event(1, "explode", 0)
        injector.on_fanout_start(None)
        with pytest.raises(ConfigError):
            injector.schedule_node_event(1, "fail", 0)  # already past

    def test_hang_fault_carries_latency(self):
        injector = FaultInjector(FaultsConfig(
            enabled=True, region_hang_rate=1.0, hang_ms=123.0))
        injector.on_fanout_start(None)
        fault = injector.decide(0, 0, 0)
        assert fault.kind == FAULT_HANG and fault.latency_ms == 123.0


class TestResilientFanout:
    def test_zero_fault_results_byte_identical_interleaved(self):
        """Armed-but-quiet injector must change *nothing* observable:
        alternate injector-off / injector-on runs and compare everything
        (answers, simulated latency, counters)."""
        cluster, qa, query = _build_qa()
        injector = FaultInjector(FaultsConfig(enabled=True))
        fingerprints = []
        for round_no in range(3):
            cluster.attach_fault_injector(None)
            fingerprints.append(_result_fingerprint(qa.search(query)))
            cluster.attach_fault_injector(injector)
            fingerprints.append(_result_fingerprint(qa.search(query)))
        assert all(fp == fingerprints[0] for fp in fingerprints)

    def test_targeted_break_is_retried_transparently(self):
        cluster, qa, query = _build_qa()
        clean = qa.search(query)
        metrics = PlatformMetrics()
        cluster.attach_metrics(metrics)
        injector = FaultInjector(FaultsConfig(enabled=True))
        cluster.attach_fault_injector(injector)
        victim = next(iter(cluster.simulation.region_placement))
        injector.break_region(victim, times=1)
        result = qa.search(query)
        assert not result.degraded
        assert result.coverage == 1.0
        assert [p.poi_id for p in result.pois] == \
               [p.poi_id for p in clean.pois]
        assert result.pois[0].visit_count == clean.pois[0].visit_count
        assert metrics.counter("fanout.retries") >= 1
        # The retried region's recovery work shows up in latency.
        assert result.latency_ms > clean.latency_ms

    def test_retry_exhaustion_falls_back_to_hedge(self):
        """Enough targeted errors to exhaust every primary attempt: the
        hedge on another node answers and the result stays exact."""
        cluster, qa, query = _build_qa()
        clean = qa.search(query)
        metrics = PlatformMetrics()
        cluster.attach_metrics(metrics)
        cfg = FaultsConfig(enabled=True, max_retries=2)
        injector = FaultInjector(cfg)
        cluster.attach_fault_injector(injector)
        victim = next(iter(cluster.simulation.region_placement))
        injector.break_region(victim, times=cfg.max_retries + 1)
        result = qa.search(query)
        assert not result.degraded
        assert [p.poi_id for p in result.pois] == \
               [p.poi_id for p in clean.pois]
        assert metrics.counter("fanout.hedges") >= 1

    def test_total_failure_degrades_gracefully(self):
        cluster, qa, query = _build_qa()
        injector = FaultInjector(FaultsConfig(
            enabled=True, region_error_rate=1.0,
            max_retries=1, hedge_enabled=False,
        ))
        cluster.attach_fault_injector(injector)
        with pytest.warns(DegradedResultWarning):
            result = qa.search(query)
        assert result.degraded
        assert result.coverage == 0.0
        assert result.pois == []
        assert len(result.missing_regions) == result.regions_used

    def test_corrupt_partials_are_rejected_and_degrade(self):
        cluster, qa, query = _build_qa()
        injector = FaultInjector(FaultsConfig(
            enabled=True, corrupt_rate=1.0,
            max_retries=1, hedge_enabled=False,
        ))
        cluster.attach_fault_injector(injector)
        with pytest.warns(DegradedResultWarning):
            result = qa.search(query)
        assert result.degraded and result.pois == []

    def test_hangs_within_budget_still_answer_exactly(self):
        cluster, qa, query = _build_qa()
        clean = qa.search(query)
        injector = FaultInjector(FaultsConfig(
            enabled=True, region_hang_rate=1.0, hang_ms=5.0,
            query_deadline_ms=10_000.0,
        ))
        cluster.attach_fault_injector(injector)
        result = qa.search(query)
        assert not result.degraded
        assert [p.poi_id for p in result.pois] == \
               [p.poi_id for p in clean.pois]
        # Stragglers answered, but the stall is on the clock.
        assert result.latency_ms > clean.latency_ms

    def test_strict_deadline_raises(self):
        cluster, qa, query = _build_qa()
        cluster.faults_config = FaultsConfig(
            enabled=True, query_deadline_ms=0.001, strict_deadline=True,
        )
        with pytest.raises(QueryDeadlineExceeded):
            qa.search(query)

    #: ``_seeded_chaos_trace`` as recorded at the last commit that ran
    #: regions on a thread pool and spelled the fault-decide -> hang ->
    #: error -> invoke sequence out twice (primary loop and hedge).
    CHAOS_TRACE = [
        ("6f825c9f13d3", 46.459847303182855, 4, 1, (9000, 9002, 9004), (
            ("fanout.breaker_opened{node=2}", 1),
            ("fanout.breaker_skips", 1),
            ("fanout.degraded_queries", 1),
            ("fanout.hedges", 1),
            ("fanout.regions_missing", 3),
            ("fanout.retries", 4),
        )),
        ("186b8b6cb0ec", 47.36697639992602, 4, 3, (9000, 9003, 9004), (
            ("fanout.breaker_opened{node=3}", 1),
            ("fanout.breaker_skips", 1),
            ("fanout.degraded_queries", 1),
            ("fanout.hedges", 3),
            ("fanout.regions_missing", 3),
            ("fanout.retries", 4),
        )),
        ("efea13376360", 43.2052, 1, 2, (9000, 9002, 9003, 9007), (
            ("fanout.breaker_skips", 3),
            ("fanout.degraded_queries", 1),
            ("fanout.hedges", 2),
            ("fanout.regions_missing", 4),
            ("fanout.retries", 1),
        )),
        ("635c948daa93", 44.40820000000001, 2, 4, (9000, 9007), (
            ("fanout.breaker_skips", 1),
            ("fanout.degraded_queries", 1),
            ("fanout.hedges", 4),
            ("fanout.regions_missing", 2),
            ("fanout.retries", 2),
        )),
    ]

    def _seeded_chaos_trace(self, monkeypatch):
        """Four queries through error + hang + corrupt injection on a
        cluster that lost a node: per query, everything the fan-out's
        recovery machinery decided."""
        from repro.hbase import region as region_module

        # Fault decisions key on the region id, which is process-global.
        monkeypatch.setattr(region_module, "_region_ids", itertools.count(9000))
        cluster, qa, query = _build_qa()
        metrics = PlatformMetrics()
        cluster.attach_metrics(metrics)
        cluster.attach_fault_injector(FaultInjector(FaultsConfig(
            enabled=True, seed=1, region_error_rate=0.35,
            region_hang_rate=0.2, corrupt_rate=0.15, hang_ms=40.0,
            max_retries=1, query_deadline_ms=60.0,
            lost_region_fraction=0.5, stale_location_errors=1,
        )))
        cluster.fail_node(0)
        trace = []
        counted = {}
        for _ in range(4):
            with pytest.warns(DegradedResultWarning):
                result = qa.search(query)
            counters = {
                name: value
                for name, value in metrics.snapshot()["counters"].items()
                if name.startswith("fanout.")
            }
            trace.append((
                hashlib.sha1(
                    repr(_result_fingerprint(result)).encode()
                ).hexdigest()[:12],
                result.latency_ms,
                result.retries,
                result.hedges,
                tuple(result.missing_regions),
                tuple(sorted(
                    (name, value - counted.get(name, 0))
                    for name, value in counters.items()
                    if value != counted.get(name, 0)
                )),
            ))
            counted = counters
        return trace

    def test_seeded_chaos_is_reproducible_and_frozen(self, monkeypatch):
        first = self._seeded_chaos_trace(monkeypatch)
        assert first == self._seeded_chaos_trace(monkeypatch)
        assert first == self.CHAOS_TRACE

    def test_explain_reports_degradation(self):
        cluster, qa, query = _build_qa()
        clean = qa.explain_personalized(query)
        assert clean["degraded"] is False
        assert clean["missing_regions"] == []
        assert clean["coverage"] == 1.0
        injector = FaultInjector(FaultsConfig(
            enabled=True, region_error_rate=1.0,
            max_retries=1, hedge_enabled=False,
        ))
        cluster.attach_fault_injector(injector)
        degraded = qa.explain_personalized(query)
        assert degraded["degraded"] is True
        assert degraded["missing_regions"]
        assert degraded["coverage"] == 0.0


class TestDegradedNodeFailure:
    def test_fail_recover_cycles_degrade_then_restore_exactly(self):
        """The acceptance loop: fail a node (with lost replicas), see a
        degraded-but-served answer, recover, see the exact answer again
        — for three cycles, without starting a single thread."""
        cluster, qa, query = _build_qa()
        injector = FaultInjector(FaultsConfig(
            enabled=True, lost_region_fraction=0.5,
            stale_location_errors=0,
        ))
        cluster.attach_fault_injector(injector)
        baseline_threads = threading.active_count()
        clean = _result_fingerprint(qa.search(query))
        for cycle in range(3):
            cluster.fail_node(0)
            lost = injector.lost_regions()
            assert lost, "lost_region_fraction must sacrifice regions"
            with pytest.warns(DegradedResultWarning):
                degraded = qa.search(query)
            assert degraded.degraded
            assert 0.0 < degraded.coverage < 1.0
            assert set(degraded.missing_regions) <= set(lost)
            cluster.recover_node(0)
            assert injector.lost_regions() == []
            restored = qa.search(query)
            assert _result_fingerprint(restored) == clean, (
                "cycle %d: recovery must restore the exact answer"
                % cycle
            )
        # The fan-out runs in this thread: no cycle started another.
        assert threading.active_count() == baseline_threads

    def test_stale_location_errors_recover_via_retry(self):
        """Node death without lost replicas: moved regions throw one
        stale-location error each, the retry path absorbs them and the
        answer stays exact."""
        cluster, qa, query = _build_qa()
        clean = qa.search(query)
        metrics = PlatformMetrics()
        cluster.attach_metrics(metrics)
        injector = FaultInjector(FaultsConfig(
            enabled=True, stale_location_errors=1,
            lost_region_fraction=0.0,
        ))
        cluster.attach_fault_injector(injector)
        moved = cluster.fail_node(0)
        assert moved
        result = qa.search(query)
        assert not result.degraded
        assert [p.poi_id for p in result.pois] == \
               [p.poi_id for p in clean.pois]
        assert metrics.counter("fanout.retries") >= len(moved)

    def test_scheduled_node_events_fire_between_fanouts(self):
        cluster, qa, query = _build_qa()
        injector = FaultInjector(FaultsConfig(
            enabled=True, lost_region_fraction=0.0,
            stale_location_errors=0,
        ))
        cluster.attach_fault_injector(injector)
        injector.schedule_node_event(2, "fail", 1)
        injector.schedule_node_event(3, "recover", 1)
        qa.search(query)  # fan-out 1: nothing scheduled yet
        assert cluster.simulation.live_node_count == 4
        qa.search(query)  # fan-out 2: node 1 dies first
        assert cluster.simulation.live_node_count == 3
        qa.search(query)  # fan-out 3: node 1 comes back
        assert cluster.simulation.live_node_count == 4
        assert [(e[1], e[2]) for e in injector.events] == \
               [("fail", 1), ("recover", 1)]

    def test_breaker_opens_on_repeated_node_errors(self):
        cluster, qa, query = _build_qa(num_nodes=2, regions=8)
        metrics = PlatformMetrics()
        cluster.attach_metrics(metrics)
        injector = FaultInjector(FaultsConfig(
            enabled=True, region_error_rate=1.0,
            max_retries=2, breaker_threshold=3, hedge_enabled=False,
        ))
        cluster.attach_fault_injector(injector)
        with pytest.warns(DegradedResultWarning):
            qa.search(query)
        states = cluster.breaker_states()
        assert any(s["open_until"] >= 0 for s in states.values())
        assert metrics.counter(
            "fanout.breaker_opened", labels={"node": 0}
        ) >= 1


class TestDegradedRestApi:
    def test_search_returns_200_envelope_with_degraded_flag(self):
        from repro import MoDisSENSE, RestApi

        # The platform owns several tables, and fail_node moves regions
        # of all of them; lose every moved replica so the visits table is
        # certainly hit.
        config = PlatformConfig(
            cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
            faults=FaultsConfig(
                enabled=True, lost_region_fraction=1.0,
                stale_location_errors=0,
            ),
        )
        with MoDisSENSE(config) as platform:
            for uid in range(1, 30):
                platform.visits_repository.store(VisitStruct(
                    user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
                    poi_name="A", lat=37.98, lon=23.73, keywords=("x",),
                ))
            rest = RestApi(platform)
            request = {"friend_ids": list(range(1, 30)),
                       "sort_by": "hotness"}

            before = rest.handle("search", request)
            assert before["status"] == "ok"
            assert before["data"]["degraded"] is False
            assert before["data"]["missing_regions"] == []
            assert before["data"]["coverage"] == 1.0

            platform.hbase.fail_node(0)
            with pytest.warns(DegradedResultWarning):
                after = rest.handle("search", request)
            # Partial results are still a 200, flagged for the client.
            assert after["status"] == "ok"
            assert after["data"]["degraded"] is True
            assert after["data"]["missing_regions"]
            assert 0.0 < after["data"]["coverage"] < 1.0
            assert platform.metrics.counter("queries.degraded") >= 1

            platform.hbase.recover_node(0)
            restored = rest.handle("search", request)
            assert restored["data"] == before["data"]


class TestSchedulerFailureIsolation:
    def _scheduler(self, metrics=None):
        from repro.core.scheduler import PeriodicScheduler

        return PeriodicScheduler(metrics=metrics)

    def test_failing_job_does_not_stop_others_or_itself(self):
        metrics = PlatformMetrics()
        scheduler = self._scheduler(metrics)
        fired = []

        def bad(now):
            raise RuntimeError("boom at %s" % now)

        scheduler.register("bad", 10.0, bad)
        scheduler.register("good", 10.0, fired.append)
        log = scheduler.advance_to(35.0)

        # Both jobs fired every period despite the failures.
        assert fired == [10.0, 20.0, 30.0]
        assert [entry[1] for entry in log].count("bad") == 3
        bad_job = scheduler.job("bad")
        assert bad_job.fire_count == 3
        assert bad_job.failure_count == 3
        assert bad_job.last_error.startswith("RuntimeError")
        assert bad_job.last_result is None
        assert metrics.counter(
            "scheduler.job_failures", labels={"job": "bad"}
        ) == 3
        assert metrics.counter(
            "scheduler.fired", labels={"job": "bad"}
        ) == 3

    def test_job_recovers_after_transient_failure(self):
        scheduler = self._scheduler()
        calls = []

        def flaky(now):
            calls.append(now)
            if len(calls) == 1:
                raise ValueError("transient")
            return now

        scheduler.register("flaky", 5.0, flaky)
        scheduler.advance_to(11.0)
        job = scheduler.job("flaky")
        assert job.failure_count == 1
        assert job.last_error is None  # cleared by the success
        assert job.last_result == 10.0


class TestWebServerFarm:
    def test_round_robin_spreads_load(self):
        farm = WebServerFarm(num_servers=2, cores_per_server=4)
        work = [MergeWork(query_id=i, items=100_000, ready_at=0.0)
                for i in range(8)]
        farm.schedule_merges(work)
        assert farm.utilization_spread() == pytest.approx(0.0, abs=1e-9)

    def test_more_servers_finish_sooner_under_load(self):
        def makespan(servers):
            farm = WebServerFarm(num_servers=servers, cores_per_server=4)
            work = [MergeWork(query_id=i, items=1_000_000, ready_at=0.0)
                    for i in range(40)]
            return max(farm.schedule_merges(work))
        assert makespan(2) < makespan(1)

    def test_saturation_point_matches_paper_claim(self):
        """Two 4-core servers are "more than enough": with a realistic
        per-query merge volume, going beyond 2 servers gains little."""
        def mean_finish(servers):
            farm = WebServerFarm(num_servers=servers, cores_per_server=4)
            # 50 concurrent queries x ~90k partial items each.
            work = [MergeWork(query_id=i, items=90_000, ready_at=0.0)
                    for i in range(50)]
            finishes = farm.schedule_merges(work)
            return sum(finishes) / len(finishes)
        one = mean_finish(1)
        two = mean_finish(2)
        four = mean_finish(4)
        assert two < one
        # Diminishing returns: 2 -> 4 servers gains far less than 1 -> 2.
        assert (two - four) < (one - two)

    def test_least_loaded_routing(self):
        farm = WebServerFarm(num_servers=2, cores_per_server=1,
                             routing="least_loaded")
        # A big job then small jobs: least-loaded sends smalls elsewhere.
        farm.schedule_merges([MergeWork(0, items=10_000_000, ready_at=0.0)])
        finishes = farm.schedule_merges(
            [MergeWork(1, items=100, ready_at=0.0)]
        )
        assert finishes[0] < 1.0  # did not queue behind the big job

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            WebServerFarm(num_servers=0)
        with pytest.raises(ConfigError):
            WebServerFarm(routing="random")

    def test_reset(self):
        farm = WebServerFarm(num_servers=1, cores_per_server=1)
        farm.schedule_merges([MergeWork(0, items=1_000_000, ready_at=0.0)])
        farm.reset()
        assert farm.servers[0].core_available_at == [0.0]

    def test_round_robin_cursor_wraps_instead_of_growing(self):
        """Regression: the balancer cursor used to grow without bound
        (``self._next_server += 1``); on a long-lived balancer that is a
        slow leak and an overflow in fixed-width implementations.  The
        cursor must stay inside ``[0, num_servers)`` forever and the
        rotation order must survive the wrap."""
        farm = WebServerFarm(num_servers=3, cores_per_server=1)
        routed = []
        for _ in range(3 * 7 + 2):
            routed.append(farm._route().node_id)
            assert 0 <= farm._next_server < len(farm.servers)
        assert routed == [i % 3 for i in range(len(routed))]
        # Wrap boundary specifically: after a full cycle the cursor is
        # back at 0, not at num_servers.
        farm.reset()
        for _ in range(3):
            farm._route()
        assert farm._next_server == 0

    def test_least_loaded_ties_break_to_lowest_index(self):
        """With all servers idle, least-loaded must be deterministic:
        the lowest-indexed server wins the tie every time."""
        farm = WebServerFarm(num_servers=3, cores_per_server=1,
                             routing="least_loaded")
        assert farm._route().node_id == 0
        # Occupy server 0's only core; the next tie (1 vs 2, both
        # idle) deterministically goes to 1.
        farm.schedule_merges([MergeWork(0, items=1_000_000, ready_at=0.0)])
        assert farm._route().node_id == 1


class TestCacheGoldenRegression:
    """Golden parity across the three execution modes: cache-off,
    cache-on, and cache-on with the PR-3 fault machinery exercising the
    path.  Faulted invocations run uncached by design, so no injector
    activity may ever pollute what later cache hits serve."""

    def _warm_stack(self):
        from repro.hbase import RegionScanCache

        cluster, qa, query = _build_qa()
        cache = RegionScanCache()
        return cluster, qa, query, cache

    def test_cache_on_off_answers_identical(self):
        cluster, qa, query, cache = self._warm_stack()
        off = qa.search(query)
        cluster.attach_scan_cache(cache)
        first = qa.search(query)  # opens the regions' generations
        populate = qa.search(query)
        hit = qa.search(query)
        for result in (first, populate, hit):
            assert [
                (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
                for p in result.pois
            ] == [
                (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
                for p in off.pois
            ]
        assert populate.cache_misses > 0
        assert hit.cache_hits > 0 and hit.cache_misses == 0
        # The hit run did strictly less storage work.
        assert hit.records_scanned < populate.records_scanned

    def test_faulted_runs_never_pollute_the_cache(self):
        cluster, qa, query, cache = self._warm_stack()
        oracle = qa.search(query)  # clean, uncached baseline
        cluster.attach_scan_cache(cache)
        injector = FaultInjector(FaultsConfig(
            enabled=True, region_error_rate=1.0,
            max_retries=1, hedge_enabled=False,
        ))
        cluster.attach_fault_injector(injector)
        # Every invocation faults, every run fully degrades — and a
        # faulted invocation must neither populate nor consult the
        # cache, so the cache stays empty through the whole storm.
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedResultWarning)
            for _ in range(3):
                stormy = qa.search(query)
                assert stormy.degraded
                assert stormy.cache_hits == 0
        assert len(cache) == 0  # faulted fan-outs bypass the cache
        # Disarm; the cached path must now match the clean oracle.
        cluster.attach_fault_injector(None)
        clean_on = qa.search(query)
        assert not clean_on.degraded
        assert [
            (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
            for p in clean_on.pois
        ] == [
            (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
            for p in oracle.pois
        ]
        # And once the quiet regions are filled, hits still agree.
        qa.search(query)
        hit = qa.search(query)
        assert hit.cache_hits > 0
        assert [p.poi_id for p in hit.pois] == \
               [p.poi_id for p in oracle.pois]

    def test_node_failure_with_cache_matches_oracle(self):
        cluster, qa, query, cache = self._warm_stack()
        cluster.attach_scan_cache(cache)
        qa.search(query)
        qa.search(query)  # warm
        invalidations_before = cache.stats()["invalidations"]
        cluster.fail_node(0)
        # The failed node's regions moved; their entries must be gone.
        assert cache.stats()["invalidations"] > invalidations_before
        cached = qa.search(query)
        cluster.scan_cache = None
        oracle = qa.search(query)
        cluster.scan_cache = cache
        assert [
            (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
            for p in cached.pois
        ] == [
            (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
            for p in oracle.pois
        ]
