"""Overload-safe serving tests: admission control primitives, the
brownout ladder, end-to-end deadline cancellation, retry budgets under
a seeded chaos storm, and the REST 429 surface.

Everything is deterministic: token buckets and budgets run on injected
fake clocks, deadline enforcement is measured in simulated cost, and
the retry-storm comparison resets the module-global region-id counter
so the seeded fault injector makes *identical* per-region decisions
across the compared cluster builds.
"""

import dataclasses
import itertools
import statistics
import warnings

import pytest

import repro.hbase.region as region_mod
from repro import MoDisSENSE, RestApi
from repro.cluster import MergeWork, WebServerFarm
from repro.config import (
    AdmissionConfig,
    ClusterConfig,
    FaultsConfig,
    PlatformConfig,
    TelemetryConfig,
)
from repro.core.admission import (
    BROWNOUT_MAX_K,
    BROWNOUT_PER_REGION_LIMIT,
    LEVEL_NORMAL,
    LEVEL_PAUSE,
    LEVEL_REJECT_ADMIN,
    LEVEL_REJECT_BACKGROUND,
    LEVEL_SHRINK,
    LEVEL_STALE,
    AdmissionController,
    GradientLimiter,
    RetryBudget,
    TokenBucket,
)
from repro.core.faults import FaultInjector
from repro.core.modules.query_answering import QueryAnsweringModule, SearchQuery
from repro.core.modules.trending import TrendingQuery
from repro.core.monitoring import PlatformMetrics
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.core.scheduler import PeriodicScheduler, build_platform_scheduler
from repro.core.supervisor import SCRUB_PERIOD_S
from repro.errors import (
    OverloadedError,
    QueryCancelled,
    QueryDeadlineExceeded,
    ValidationError,
)
from repro.hbase import CancellationToken, HBaseCluster
from repro.sqlstore import SqlEngine


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# --------------------------------------------------------------------------
# TokenBucket


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after_s() == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)  # a long idle stretch earns only `burst`
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValidationError):
            TokenBucket(rate=1.0, burst=0.0)


# --------------------------------------------------------------------------
# RetryBudget


class TestRetryBudget:
    def test_ratio_bounds_spends(self):
        clock = FakeClock()
        budget = RetryBudget(ratio=0.1, window_s=10.0, min_tokens=2,
                             clock=clock)
        budget.record_request(100)
        grants = sum(budget.try_spend() for _ in range(15))
        assert grants == 10  # 0.1 x 100
        stats = budget.stats()
        assert stats["window_spends"] == 10
        assert stats["denied_total"] == 5
        assert stats["window_spends"] <= stats["allowed"]

    def test_min_tokens_floor_with_no_traffic(self):
        budget = RetryBudget(ratio=0.1, window_s=10.0, min_tokens=2,
                             clock=FakeClock())
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_window_expiry_forgets_old_spends(self):
        clock = FakeClock()
        budget = RetryBudget(ratio=0.1, window_s=10.0, min_tokens=2,
                             clock=clock)
        budget.record_request(100)
        for _ in range(10):
            assert budget.try_spend()
        assert not budget.try_spend()
        clock.advance(11.0)  # everything scrolls out of the window
        assert budget.stats()["window_requests"] == 0
        # Back to the floor: two grants, then denial again.
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            RetryBudget(ratio=0.0)
        with pytest.raises(ValidationError):
            RetryBudget(ratio=1.5)
        with pytest.raises(ValidationError):
            RetryBudget(window_s=0.0)


# --------------------------------------------------------------------------
# GradientLimiter


class TestGradientLimiter:
    def _limiter(self, **kw):
        defaults = dict(
            name="t", initial_limit=10, min_limit=2, max_limit=12,
            latency_tolerance=2.0, decrease_factor=0.7, increase_step=1.0,
            sample_window=4, baseline_latency_ms=10.0,
        )
        defaults.update(kw)
        return GradientLimiter(**defaults)

    def test_congestion_shrinks_multiplicatively(self):
        lim = self._limiter()
        for _ in range(4):
            lim.observe(100.0)  # 10x baseline: congested window
        assert lim.limit == 7  # int(10 * 0.7)
        assert lim.describe()["decreases"] == 1

    def test_calm_grows_additively_and_caps(self):
        lim = self._limiter(initial_limit=11)
        for _ in range(8):  # two calm windows
            lim.observe(5.0)
        assert lim.limit == 12  # capped at max_limit
        assert lim.describe()["increases"] == 2

    def test_floor_at_min_limit(self):
        lim = self._limiter()
        for _ in range(4 * 20):  # many congested windows
            lim.observe(100.0)
        assert lim.limit == 2

    def test_inflight_gates_admission(self):
        lim = self._limiter(initial_limit=2)
        assert lim.try_acquire()
        assert lim.try_acquire()
        assert not lim.try_acquire()
        lim.release()
        assert lim.try_acquire()

    def test_learned_baseline_tracks_smallest_median(self):
        lim = self._limiter(baseline_latency_ms=None)
        for _ in range(4):
            lim.observe(10.0)
        assert lim.baseline_ms == pytest.approx(10.0)
        for _ in range(4):
            lim.observe(8.0)
        assert lim.baseline_ms == pytest.approx(8.0)
        # A slower window drifts the floor up by at most 2%.
        for _ in range(4):
            lim.observe(50.0)
        assert lim.baseline_ms == pytest.approx(8.0 * 1.02)


# --------------------------------------------------------------------------
# AdmissionController


class FakeScheduler:
    def __init__(self):
        self.pauses = 0
        self.resumes = 0

    def pause_pausable(self):
        self.pauses += 1
        return ["storage_scrub"]

    def resume_pausable(self):
        self.resumes += 1
        return ["storage_scrub"]


class FakeIngest:
    def __init__(self):
        self.shed_states = []

    def set_shed_override(self, active):
        self.shed_states.append(active)


class FakeEventLog:
    def __init__(self):
        self.events = []

    def emit(self, event, **kw):
        self.events.append(event)


def _controller(**overrides):
    cfg = AdmissionConfig(
        initial_limit=4, min_limit=1,
        baseline_latency_ms=10.0, escalate_ticks=2, recover_ticks=2,
        **overrides,
    )
    metrics = PlatformMetrics()
    log = FakeEventLog()
    return AdmissionController(cfg, metrics=metrics, event_log=log), metrics, log


class TestAdmissionController:
    def test_priority_ordered_rejection(self):
        ctrl, _m, _log = _controller()
        ctrl.force_level(LEVEL_REJECT_BACKGROUND)
        with pytest.raises(OverloadedError):
            ctrl.admit("background")
        ctrl.admit("admin").finish()
        ctrl.admit("interactive").finish()
        ctrl.force_level(LEVEL_REJECT_ADMIN)
        with pytest.raises(OverloadedError):
            ctrl.admit("admin")
        # Interactive is the last class standing at the top rung.
        ctrl.admit("interactive").finish()
        ctrl.reset()
        assert ctrl.level == LEVEL_NORMAL

    def test_unknown_priority_rejected(self):
        ctrl, _m, _log = _controller()
        with pytest.raises(ValidationError):
            ctrl.admit("vip")

    def test_concurrency_rejection_carries_retry_hint(self):
        ctrl, metrics, _log = _controller()
        tickets = [ctrl.admit("interactive") for _ in range(4)]
        with pytest.raises(OverloadedError) as exc:
            ctrl.admit("interactive")
        assert exc.value.retry_after_s > 0
        assert metrics.counter(
            "admission.rejected",
            labels={"class": "interactive", "reason": "concurrency"},
        ) == 1
        for t in tickets:
            t.finish()
        ctrl.admit("interactive").finish()

    def test_client_rate_limit_isolated_per_client(self):
        ctrl, _m, _log = _controller(client_rate=1.0, client_burst=2.0)
        ctrl.admit("interactive", client_id="noisy").finish()
        ctrl.admit("interactive", client_id="noisy").finish()
        with pytest.raises(OverloadedError) as exc:
            ctrl.admit("interactive", client_id="noisy")
        assert "noisy" in str(exc.value)
        # A different caller is untouched by the noisy one's bucket.
        ctrl.admit("interactive", client_id="quiet").finish()

    def test_escalate_and_recover_hysteresis(self):
        ctrl, _m, log = _controller()

        def hot_tick():
            tickets = [ctrl.admit("interactive") for _ in range(4)]
            for _ in range(2):
                with pytest.raises(OverloadedError):
                    ctrl.admit("interactive")
            for t in tickets:
                t.finish()
            ctrl.tick()

        assert ctrl.tick() == LEVEL_NORMAL  # calm stays at 0
        hot_tick()
        assert ctrl.level == LEVEL_NORMAL  # hysteresis: one hot tick
        hot_tick()
        assert ctrl.level == LEVEL_STALE
        assert ctrl.stale_ok()
        assert ctrl.query_shape() is None  # shaping starts one rung up
        hot_tick()
        hot_tick()
        assert ctrl.level == LEVEL_SHRINK
        shape = ctrl.query_shape()
        assert shape == {
            "per_region_limit": BROWNOUT_PER_REGION_LIMIT,
            "max_k": BROWNOUT_MAX_K,
        }
        # Calm ticks walk back down one rung per `recover_ticks` run.
        ctrl.tick()
        ctrl.tick()
        assert ctrl.level == LEVEL_STALE
        ctrl.tick()
        ctrl.tick()
        assert ctrl.level == LEVEL_NORMAL
        assert [e["reason"] for e in log.events] == [
            "escalate", "escalate", "recover", "recover",
        ]

    def test_level_three_levers_are_edge_triggered(self):
        ctrl, _m, _log = _controller()
        sched, ingest = FakeScheduler(), FakeIngest()
        ctrl.scheduler = sched
        ctrl.ingest = ingest
        ctrl.force_level(LEVEL_PAUSE)
        assert sched.pauses == 1 and ingest.shed_states == [True]
        ctrl.force_level(LEVEL_REJECT_BACKGROUND)  # still >= 3: no re-fire
        assert sched.pauses == 1 and len(ingest.shed_states) == 1
        ctrl.force_level(LEVEL_SHRINK)  # crossing back down releases
        assert sched.resumes == 1 and ingest.shed_states == [True, False]
        ctrl.reset()
        assert sched.resumes == 1  # already below the rung: no re-fire

    def test_describe_shape(self):
        ctrl, _m, _log = _controller()
        info = ctrl.describe()
        assert info["enabled"] is True
        assert info["level_name"] == "normal"
        assert set(info["limiters"]) == {
            "interactive", "admin", "background",
        }
        assert info["retry_budget"]["ratio"] == 0.1
        # Weighted initial limits: interactive > admin > background.
        limits = {c: d["limit"] for c, d in info["limiters"].items()}
        assert limits["interactive"] > limits["admin"] > limits["background"]


# --------------------------------------------------------------------------
# REST surface


def _platform_config(admission=None, telemetry=False):
    cfg = dataclasses.replace(
        PlatformConfig.small(),
        telemetry=TelemetryConfig(enabled=telemetry),
    )
    if admission is not None:
        cfg = dataclasses.replace(cfg, admission=admission)
    return cfg


def _seed(platform, users=10):
    for uid in range(1, users):
        platform.visits_repository.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5, poi_name="A",
            lat=37.98, lon=23.73, keywords=("x",),
        ))


class TestRestAdmission:
    def test_brownout_rejection_envelope(self):
        p = MoDisSENSE(_platform_config())
        _seed(p)
        rest = RestApi(p)
        try:
            forced = rest.handle(
                "admin_admission",
                {"force_level": LEVEL_REJECT_BACKGROUND},
            )
            assert forced["data"]["level_name"] == "reject_background"
            assert forced["data"]["forced"] is True
            # Background traffic is shed with a machine-readable 429.
            out = rest.handle("push_gps", {"points": []})
            assert out["status"] == "error"
            assert out["error"]["code"] == "overloaded"
            assert out["error"]["retry_after_s"] > 0
            # Interactive traffic still flows at this rung.
            ok = rest.handle(
                "search", {"friend_ids": [1, 2, 3], "sort_by": "hotness"}
            )
            assert ok["status"] == "ok"
            reset = rest.handle("admin_admission", {"reset": True})
            assert reset["data"]["level"] == 0
            again = rest.handle("push_gps", {"points": []})
            assert again["status"] == "ok"
        finally:
            p.shutdown()

    def test_per_client_rate_limit_at_the_boundary(self):
        p = MoDisSENSE(_platform_config(AdmissionConfig(
            client_rate=0.001, client_burst=2.0,
        )))
        _seed(p)
        rest = RestApi(p)
        try:
            req = {"friend_ids": [1, 2], "sort_by": "hotness",
                   "client_id": "noisy"}
            assert rest.handle("search", dict(req))["status"] == "ok"
            assert rest.handle("search", dict(req))["status"] == "ok"
            third = rest.handle("search", dict(req))
            assert third["status"] == "error"
            assert third["error"]["code"] == "overloaded"
            assert third["error"]["retry_after_s"] > 0
            other = dict(req, client_id="quiet")
            assert rest.handle("search", other)["status"] == "ok"
        finally:
            p.shutdown()

    def test_stale_level_serves_the_cached_answer_degraded(self):
        """Brownout level 1 trades freshness first: a non-personalized
        answer the hot-POI cache holds is served after a POI write made
        it stale, flagged degraded; back at level 0 it is recomputed."""
        p = MoDisSENSE(_platform_config())
        try:
            p.poi_repository.add(POI(1, "A", 37.98, 23.73, ("x",), "food"))
            query = SearchQuery(keywords=("x",), sort_by="hotness")
            cached = p.search(query)
            p.poi_repository.update_hotin(1, hotness=5.0, interest=1.0)
            p.admission.force_level(LEVEL_STALE)
            stale = p.search(query)
            assert stale.degraded
            assert stale.pois == cached.pois
            assert p.metrics.counter("admission.stale_served") == 1
            p.admission.reset()
            fresh = p.search(query)
            assert not fresh.degraded
            assert fresh.pois != cached.pois
        finally:
            p.shutdown()

    def test_untriggered_admission_is_byte_identical(self):
        """Admission idle must not perturb a single answer — the feature
        is free until it fires: every REST answer is the direct module
        call's, and the personalized ranking is the no-coprocessor
        client-side path's."""
        p = MoDisSENSE(_platform_config())
        _seed(p)
        rest = RestApi(p)

        def rows(result, *fields):
            return [{f: getattr(x, f) for f in fields} for x in result.pois]

        search_fields = ("poi_id", "name", "lat", "lon", "score",
                         "visit_count")
        personalized = SearchQuery(friend_ids=(1, 2, 3), sort_by="hotness")
        plain = SearchQuery(keywords=("x",), sort_by="hotness")
        trending = TrendingQuery(now=100, window_s=1000)
        try:
            client = p.query_answering.search_personalized_client_side(
                personalized
            )
            for _ in range(3):
                out = rest.handle(
                    "search", {"friend_ids": [1, 2, 3], "sort_by": "hotness"}
                )["data"]
                assert not out["degraded"]
                assert out["pois"] == rows(
                    p.search(personalized), *search_fields
                )
                assert [(x["poi_id"], x["visit_count"]) for x in out["pois"]] \
                    == [(x.poi_id, x.visit_count) for x in client.pois]
                assert [x["score"] for x in out["pois"]] == pytest.approx(
                    [x.score for x in client.pois]
                )
                out = rest.handle(
                    "search", {"keywords": ["x"], "sort_by": "hotness"}
                )["data"]
                assert out["pois"] == rows(p.search(plain), *search_fields)
                out = rest.handle(
                    "trending", {"now": 100, "window_s": 1000}
                )["data"]
                assert out["pois"] == rows(
                    p.trending_events(trending), "poi_id", "name", "score"
                )
            assert p.admission.rejected == 0
        finally:
            p.shutdown()

    def test_state_changes_emit_wide_events(self):
        p = MoDisSENSE(_platform_config(telemetry=True))
        rest = RestApi(p)
        try:
            rest.handle("admin_admission", {"force_level": 3})
            out = rest.handle("admin_events", {"type": "admission.state"})
            events = out["data"]["events"]
            assert events
            assert events[-1]["level"] == 3
            assert events[-1]["level_name"] == "pause"
            assert events[-1]["reason"] == "forced"
        finally:
            p.shutdown()


# --------------------------------------------------------------------------
# Deadline propagation and cooperative cancellation


class TestCancellationToken:
    def test_cancel_first_wins(self):
        token = CancellationToken()
        assert token.cancel("abandoned")
        assert not token.cancel("later")
        assert token.reason == "abandoned"

    def test_checkpoint_raises_after_cancel(self):
        token = CancellationToken()
        token.checkpoint(records=10)  # clean: no deadline, not tripped
        token.cancel("abandoned")
        with pytest.raises(QueryCancelled):
            token.checkpoint(records=10)

    def test_deadline_budget_is_simulated_cost(self):
        token = CancellationToken(
            deadline_ms=2.0, cost_per_record_ms=0.01, setup_ms=0.5,
        )
        token.checkpoint(records=100)  # 0.5 + 1.0 = 1.5ms: inside
        assert token.remaining_ms(1.5) == pytest.approx(0.5)
        with pytest.raises(QueryCancelled):
            token.checkpoint(records=200)  # 0.5 + 2.0 = 2.5ms: blown
        assert not token.cancelled  # non-strict: region-local trip

    def test_strict_trips_shared_token(self):
        token = CancellationToken(
            deadline_ms=1.0, cost_per_record_ms=0.01, strict=True,
        )
        with pytest.raises(QueryCancelled):
            token.checkpoint(records=200)
        assert token.cancelled  # siblings abort at their next probe

    def test_no_deadline_remaining_is_infinite(self):
        assert CancellationToken().remaining_ms(1e9) == float("inf")


def _deadline_stack(visits_per_user=50, regions=8):
    cluster = HBaseCluster(
        ClusterConfig(num_nodes=4, regions_per_table=regions)
    )
    pois = POIRepository(SqlEngine())
    pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                 keywords=("x",), category="cafe"))
    visits = VisitsRepository(cluster, num_regions=regions)
    for uid in range(1, 40):
        for k in range(visits_per_user):
            visits.store(VisitStruct(
                user_id=uid, poi_id=1, timestamp=uid * 1000 + k,
                grade=0.5, poi_name="A", lat=37.98, lon=23.73,
                keywords=("x",),
            ))
    qa = QueryAnsweringModule(pois, visits)
    return cluster, qa


class TestDeadlineCancellation:
    def test_mid_scan_abort_stops_burning_cells(self):
        """A 2ms deadline over ~1950 scannable records must abort each
        region within one checkpoint interval — the whole point of
        cooperative cancellation is that the work *stops*, not that the
        result is merely flagged late."""
        cluster, qa = _deadline_stack()
        query = SearchQuery(
            friend_ids=tuple(range(1, 40)), sort_by="hotness",
        )
        clean = qa.search(query)
        assert not clean.degraded
        assert clean.records_scanned == 1950

        tight = SearchQuery(
            friend_ids=tuple(range(1, 40)), sort_by="hotness",
            deadline_ms=2.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cut = qa.search(tight)
        assert cut.degraded
        assert cut.coverage < 1.0
        # Every region stopped at (or before) its first checkpoint:
        # 8 regions x 64-cell probe interval, nowhere near 1950.
        assert cut.records_scanned <= 8 * 64
        assert cut.records_scanned < clean.records_scanned / 3

    def test_strict_deadline_aborts_whole_query(self):
        cluster, qa = _deadline_stack()
        cluster.faults_config = FaultsConfig(
            enabled=True, strict_deadline=True,
        )
        tight = SearchQuery(
            friend_ids=tuple(range(1, 40)), sort_by="hotness",
            deadline_ms=2.0,
        )
        with pytest.raises(QueryDeadlineExceeded) as exc:
            qa.search(tight)
        assert "aborted mid-scan" in str(exc.value)

    @pytest.mark.parametrize(
        "window, deadline_ms, probes, scanned",
        [
            # 39 friends x 50 cells; 0.01 ms/cell against 1.2 ms blows at
            # the first probe with >= 120 cells behind it.
            ((None, None), 1.2, list(range(7, 127, 7)), 126),
            # Never blown: one probe per multiple of 7 of the running
            # count, across friend boundaries (50 is no multiple of 7).
            ((None, None), None, list(range(7, 1951, 7)), 1950),
            # A window cuts slices of 40, 50 x 14, 30 and 24 empty ones.
            ((5010, 20030), None, list(range(7, 771, 7)), 770),
            ((5010, 20030), 4.0, list(range(7, 407, 7)), 406),
        ],
    )
    def test_probe_schedule_is_the_per_cell_loops(
        self, window, deadline_ms, probes, scanned
    ):
        """The fold reads a friend's cells as one slice but probes the
        token exactly where a cell-at-a-time loop does: at every
        multiple of ``check_every`` of the invocation's running cell
        count, charging the cells up to the probe that tripped.  The
        expected values were recorded from the per-cell loop this test
        first ran against (the parent commit's ``_fold_friends``)."""
        from repro.core.modules.query_answering import (
            VisitScanCoprocessor,
            _VisitScanRequest,
        )
        from repro.hbase import CoprocessorContext

        class RecordingToken(CancellationToken):
            def checkpoint(self, records, extra_ms=0.0):
                self.probed.append(records)
                super().checkpoint(records, extra_ms)

        _cluster, qa = _deadline_stack(regions=1)
        token = RecordingToken(
            deadline_ms=deadline_ms, cost_per_record_ms=0.01, check_every=7
        )
        token.probed = []
        context = CoprocessorContext(
            qa.visits.table.regions[0], cancellation=token
        )
        request = _VisitScanRequest(
            friend_ids=tuple(range(1, 40)), bbox=None, keywords=(),
            since=window[0], until=window[1],
        )
        if deadline_ms is None:
            VisitScanCoprocessor().run(context, request)
        else:
            with pytest.raises(QueryCancelled):
                VisitScanCoprocessor().run(context, request)
        assert token.probed == probes
        assert context.records_scanned == scanned

    def test_no_deadline_path_is_unchanged(self):
        cluster, qa = _deadline_stack(visits_per_user=5)
        query = SearchQuery(
            friend_ids=tuple(range(1, 40)), sort_by="hotness",
        )
        first = qa.search(query)
        second = qa.search(query)
        assert not first.degraded
        assert first.records_scanned == second.records_scanned
        assert [p.poi_id for p in first.pois] == \
               [p.poi_id for p in second.pois]


# --------------------------------------------------------------------------
# Retry budget under a seeded chaos storm


def _storm(max_retries, budget=None, queries=16):
    """Run `queries` personalized searches against a 30%-error-rate
    cluster; returns (per-query coverages, metrics).

    Region ids come from a module-global counter, and the seeded
    injector keys its decisions on them — reset the counter so every
    compared build sees identical ids and thus *identical* first-attempt
    fault decisions.
    """
    region_mod._region_ids = itertools.count()
    fcfg = FaultsConfig(
        enabled=True, seed=42, region_error_rate=0.3,
        max_retries=max_retries, hedge_enabled=False,
        breaker_threshold=1000,
    )
    cluster = HBaseCluster(
        ClusterConfig(num_nodes=4, regions_per_table=8),
        faults_config=fcfg,
    )
    pois = POIRepository(SqlEngine())
    pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                 keywords=("x",), category="cafe"))
    visits = VisitsRepository(cluster, num_regions=8)
    for uid in range(1, 41):
        visits.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5, poi_name="A",
            lat=37.98, lon=23.73, keywords=("x",),
        ))
    qa = QueryAnsweringModule(pois, visits)
    cluster.fault_injector = FaultInjector(fcfg)
    metrics = PlatformMetrics()
    cluster.metrics = metrics
    if budget is not None:
        cluster.retry_budget = budget
    query = SearchQuery(friend_ids=tuple(range(1, 41)), sort_by="hotness")
    coverages = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(queries):
            coverages.append(qa.search(query).coverage)
    return coverages, metrics


class TestRetryStorm:
    def test_budget_caps_the_storm_without_losing_goodput(self):
        """Seeded chaos at 4x load (16 back-to-back fan-outs, 30% region
        error rate): the budget must (a) hold spends within its ratio
        bound, (b) cut retry volume far below the unbudgeted storm, and
        (c) still beat the no-retry baseline's coverage — capped
        recovery is strictly better than none, per query."""
        no_retry, _ = _storm(max_retries=0)
        unbudgeted, m_storm = _storm(max_retries=2)
        budget = RetryBudget(ratio=0.1, window_s=60.0, min_tokens=2)
        budgeted, m_budget = _storm(max_retries=2, budget=budget)

        # (a) within budget: spends never exceed the sliding-window bound.
        stats = budget.stats()
        assert stats["window_spends"] <= stats["allowed"]
        assert stats["denied_total"] > 0  # the cap actually bit
        assert m_budget.counter("fanout.retries_denied") == \
               stats["denied_total"]

        # (b) storm suppression: far fewer retries than the open tap.
        storm_retries = m_storm.counter("fanout.retries")
        budget_retries = m_budget.counter("fanout.retries")
        assert budget_retries < storm_retries / 2
        assert budget_retries == stats["spent_total"]

        # (c) goodput: every budgeted query covers at least as much as
        # its no-retry twin (identical fault decisions), and the mean
        # strictly improves.
        assert all(b >= n for b, n in zip(budgeted, no_retry))
        assert statistics.mean(budgeted) > statistics.mean(no_retry)
        # Sanity: the unbudgeted storm buys the most coverage — the
        # budget trades a little goodput for bounded amplification.
        assert statistics.mean(unbudgeted) >= statistics.mean(budgeted)


# --------------------------------------------------------------------------
# Web farm: least-loaded beats round-robin on skewed work


class TestWebFarmSkew:
    def test_least_loaded_has_lower_spread_on_skewed_work(self):
        """A huge merge every `num_servers`-th item aliases with the
        round-robin cycle, piling all heavy work on one server; the
        least-loaded policy routes around it."""
        def spread(routing):
            farm = WebServerFarm(
                num_servers=4, cores_per_server=2, routing=routing
            )
            sizes = [
                2_000_000 if i % 4 == 0 else 20_000 for i in range(40)
            ]
            farm.schedule_merges([
                MergeWork(query_id=i, items=s, ready_at=0.0)
                for i, s in enumerate(sizes)
            ])
            return farm.utilization_spread()

        rr = spread("round_robin")
        ll = spread("least_loaded")
        assert ll < rr / 2


# --------------------------------------------------------------------------
# Scheduler pause/resume under brownout


class TestSchedulerPause:
    def test_pause_pausable_only_touches_pausable_jobs(self):
        scheduler = PeriodicScheduler()
        fired = []
        scheduler.register("batch", 5.0, fired.append, pausable=True)
        scheduler.register("vital", 5.0, fired.append)
        assert scheduler.pause_pausable() == ["batch"]
        assert scheduler.pause_pausable() == []  # idempotent
        scheduler.advance_to(20.0)
        assert scheduler.job("batch").fire_count == 0
        assert scheduler.job("vital").fire_count == 4
        assert scheduler.resume_pausable() == ["batch"]
        assert scheduler.resume_pausable() == []

    def test_resume_is_level_triggered(self):
        """Windows missed while paused are shed, not replayed: the job
        fires once, one period after resume."""
        scheduler = PeriodicScheduler()
        scheduler.register("batch", 5.0, lambda now: now, pausable=True)
        scheduler.pause("batch")
        scheduler.advance_to(50.0)  # 10 missed windows
        assert scheduler.job("batch").fire_count == 0
        scheduler.resume("batch")
        scheduler.advance_to(56.0)
        job = scheduler.job("batch")
        assert job.fire_count == 1
        assert job.last_result == 55.0  # now + period, not a replay

    def test_resume_unpaused_job_keeps_schedule(self):
        scheduler = PeriodicScheduler()
        scheduler.register("batch", 5.0, lambda now: now)
        scheduler.advance_to(3.0)
        scheduler.resume("batch")  # no-op: not paused
        assert scheduler.job("batch").next_fire_at == 5.0

    def test_platform_storage_scrub_pauses_and_resumes(self):
        """The supervisor's scrub is background work the brownout ladder
        may park: paused it fires no callbacks, resumed it comes back
        level-triggered."""
        p = MoDisSENSE(_platform_config())
        try:
            scheduler = build_platform_scheduler(p)
            period = SCRUB_PERIOD_S
            job = scheduler.job("storage_scrub")
            assert job.pausable
            # The liveness-critical jobs are deliberately not pausable.
            assert not scheduler.job("supervisor_heartbeat").pausable
            scheduler.pause("storage_scrub")
            scheduler.advance_by(5 * period)
            assert job.fire_count == 0
            scheduler.resume("storage_scrub")
            scheduler.advance_by(period)
            assert job.fire_count == 1  # one fire, missed windows shed
        finally:
            p.shutdown()
