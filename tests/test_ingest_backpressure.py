"""Backpressure semantics of the streaming ingest tier.

Deterministic setup: crash a partition's applier (via the injection
hook) so its bounded queue stops draining, then drive producers into
the full queue.  Both policies must fail *typed* — the visit is never
enqueued, nothing is half-applied — and every visit that WAS accepted
must land once pressure releases.
"""

import threading
import time

import pytest

from repro.config import ClusterConfig, IngestConfig, PlatformConfig
from repro.core.ingest import _PartitionQueue
from repro.core.platform import MoDisSENSE
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.errors import BackpressureError


def visit(i, poi_id=1):
    return VisitStruct(user_id=100 + i, poi_id=poi_id, timestamp=1000 + i,
                       grade=0.5)


def make_platform(capacity, policy, timeout_s=0.2):
    config = PlatformConfig(
        cluster=ClusterConfig(num_nodes=2, regions_per_table=4),
        ingest=IngestConfig(
            enabled=True,
            num_partitions=1,
            queue_capacity=capacity,
            max_batch=8,
            backpressure=policy,
            block_timeout_s=timeout_s,
        ),
    )
    platform = MoDisSENSE(config)
    platform.poi_repository.add(
        POI(poi_id=1, name="p", lat=38.0, lon=23.7, keywords=("k",),
            category="test")
    )
    return platform


def stall_applier(platform):
    """Deterministically stop partition 0 from draining: arm the crash
    hook and feed it one sacrificial visit."""
    tier = platform.ingest
    tier.inject_crash(0)
    tier.submit(visit(0))
    deadline = time.monotonic() + 10.0
    while tier.crashed_partitions() != [0]:
        assert time.monotonic() < deadline
        time.sleep(0.005)
    return tier


class TestPartitionQueueUnit:
    def test_shed_raises_immediately_when_full(self):
        q = _PartitionQueue(capacity=2)
        q.offer("a", block=False, timeout_s=0.0)
        q.offer("b", block=False, timeout_s=0.0)
        start = time.monotonic()
        with pytest.raises(BackpressureError):
            q.offer("c", block=False, timeout_s=0.0)
        assert time.monotonic() - start < 0.1  # no hidden wait
        assert q.depth() == 2  # the shed item was never enqueued

    def test_block_times_out_typed(self):
        q = _PartitionQueue(capacity=1)
        q.offer("a", block=True, timeout_s=1.0)
        start = time.monotonic()
        with pytest.raises(BackpressureError):
            q.offer("b", block=True, timeout_s=0.15)
        elapsed = time.monotonic() - start
        assert elapsed >= 0.14  # honored the wait budget
        assert q.depth() == 1

    def test_blocked_producer_resumes_when_consumer_drains(self):
        q = _PartitionQueue(capacity=1)
        q.offer("a", block=True, timeout_s=1.0)

        def consume_later():
            time.sleep(0.05)
            q.take_batch(1, wait_s=0.0)

        t = threading.Thread(target=consume_later)
        t.start()
        waited = q.offer("b", block=True, timeout_s=5.0)
        t.join()
        assert waited  # the producer did block before succeeding
        assert q.take_batch(8, wait_s=0.0)[0] == ["b"]

    def test_take_batch_caps_at_max(self):
        q = _PartitionQueue(capacity=16)
        for i in range(10):
            q.offer(i, block=False, timeout_s=0.0)
        assert q.take_batch(4, wait_s=0.0)[0] == [0, 1, 2, 3]
        assert q.depth() == 6


class TestShedPolicy:
    def test_shed_is_typed_and_counted(self):
        with make_platform(capacity=2, policy="shed") as platform:
            tier = stall_applier(platform)
            accepted = 0
            for i in range(1, 3):  # fills the dead partition's queue
                tier.submit(visit(i))
                accepted += 1
            with pytest.raises(BackpressureError):
                tier.submit(visit(99))
            assert tier.shed == 1
            assert tier.backpressure_events == 1
            assert platform.metrics.counter(
                "ingest.backpressure_events", labels={"policy": "shed"}
            ) == 1
            assert platform.metrics.counter("ingest.shed") == 1

            # Pressure releases: every ACCEPTED visit lands, the shed
            # one does not (its rejection was the contract).
            tier.recover(0)
            assert tier.drain()
            snap = platform.incremental_hotin.snapshot()
            # sacrificial + 2 accepted, all on poi 1
            assert snap[1][0] == 1 + accepted

    def test_shed_failure_never_half_applies(self):
        with make_platform(capacity=1, policy="shed") as platform:
            tier = stall_applier(platform)
            tier.submit(visit(1))
            before = platform.visits_repository.count()
            with pytest.raises(BackpressureError):
                tier.submit(visit(2))
            assert platform.visits_repository.count() == before
            assert tier.submitted == 2  # sacrificial + one accepted
            tier.recover(0)
            assert tier.drain()
            assert platform.visits_repository.count() == 2


class TestBlockPolicy:
    def test_block_times_out_after_budget(self):
        with make_platform(
            capacity=1, policy="block", timeout_s=0.15
        ) as platform:
            tier = stall_applier(platform)
            tier.submit(visit(1))
            start = time.monotonic()
            with pytest.raises(BackpressureError):
                tier.submit(visit(2))
            assert time.monotonic() - start >= 0.14
            assert tier.backpressure_events == 1
            assert platform.metrics.counter(
                "ingest.backpressure_events", labels={"policy": "block"}
            ) == 1
            tier.recover(0)
            assert tier.drain()

    def test_blocked_producer_lands_after_recovery(self):
        with make_platform(
            capacity=1, policy="block", timeout_s=10.0
        ) as platform:
            tier = stall_applier(platform)
            tier.submit(visit(1))  # queue now full

            outcome = {}

            def producer():
                outcome["partition"] = tier.submit(visit(2))

            t = threading.Thread(target=producer)
            t.start()
            time.sleep(0.05)
            assert t.is_alive()  # genuinely blocked on the full queue
            tier.recover(0)  # applier resumes, space frees, producer lands
            t.join(timeout=10.0)
            assert not t.is_alive()
            assert outcome["partition"] == 0
            assert tier.drain()
            # No delta lost: sacrificial + both producers' visits.
            assert platform.incremental_hotin.snapshot()[1][0] == 3
            # The wait itself was observable as a backpressure event.
            assert tier.backpressure_events >= 1


class TestAdminSurface:
    def test_admin_ingest_reports_and_forces_actions(self):
        from repro.core.api.rest import RestApi

        with make_platform(capacity=64, policy="block") as platform:
            api = RestApi(platform)
            for i in range(1, 9):
                platform.ingest_visit(visit(i))
            assert platform.ingest.drain()

            resp = api.handle("admin_ingest", {})
            assert resp["status"] == "ok"
            stats = resp["data"]["stats"]
            assert resp["data"]["enabled"] is True
            assert stats["counters"]["submitted"] == 8
            assert stats["counters"]["applied"] == 8
            assert len(stats["partitions"]) == 1

            resp = api.handle(
                "admin_ingest",
                {"rebalance": True, "reconcile": True,
                 "since": 0, "until": 5000},
            )
            assert resp["status"] == "ok"
            assert resp["data"]["reconcile"]["in_sync"] is True

            resp = api.handle("admin_ingest", {"reconcile": True})
            assert resp["status"] == "error"
            assert resp["error"]["code"] == "bad_request"

    def test_admin_ingest_when_disabled(self):
        from repro.core.api.rest import RestApi

        config = PlatformConfig.baseline(
            ClusterConfig(num_nodes=2, regions_per_table=4)
        )
        with MoDisSENSE(config) as platform:
            api = RestApi(platform)
            resp = api.handle("admin_ingest", {})
            assert resp["status"] == "ok"
            assert resp["data"] == {"enabled": False}
