"""Staleness oracle for the streaming ingest tier.

The incremental HotIn state must agree with a from-scratch batch
MapReduce recompute over the same visits — for any seeded interleaving
of producers, after crash/recover cycles, and across load-aware
repartitions.  Grades are dyadic rationals (exact in binary floating
point), so ``grade_sum`` equality is exact regardless of fold order;
the reconciliation pass is separately shown to repair any divergence.
"""

import random
import time

import pytest

from repro.config import ClusterConfig, IngestConfig, PlatformConfig
from repro.core.modules.hotin_update import IncrementalHotIn
from repro.core.platform import MoDisSENSE
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct

WINDOW = (0, 10_000)


def make_platform(**ingest_overrides):
    ingest_kwargs = dict(
        num_partitions=2,
        queue_capacity=1024,
        max_batch=64,
        rebalance_min_events=1,
    )
    ingest_kwargs.update(ingest_overrides)
    config = PlatformConfig(
        cluster=ClusterConfig(num_nodes=2, regions_per_table=8),
        ingest=IngestConfig(**ingest_kwargs),
    )
    platform = MoDisSENSE(config)
    for poi_id in range(1, 21):
        platform.poi_repository.add(
            POI(poi_id=poi_id, name="poi-%d" % poi_id,
                lat=38.0 + poi_id * 0.01, lon=23.7,
                keywords=("k%d" % poi_id,), category="test")
        )
    return platform


def make_visits(seed, n=300, num_users=40, num_pois=20):
    """Seeded visit stream with dyadic grades (order-exact float sums)."""
    rng = random.Random(seed)
    visits = [
        VisitStruct(
            user_id=rng.randrange(1, num_users + 1),
            poi_id=rng.randrange(1, num_pois + 1),
            timestamp=rng.randrange(WINDOW[0] + 1, WINDOW[1]),
            grade=rng.randrange(0, 21) * 0.25,
            poi_name="p",
        )
        for _ in range(n)
    ]
    # Distinct (user, ts, poi) triples: duplicate row keys would make the
    # table overwrite while the incremental state double-counts, which is
    # an application-semantics question, not an ingest-correctness one.
    seen = set()
    unique = []
    for v in visits:
        key = (v.user_id, v.timestamp, v.poi_id)
        if key not in seen:
            seen.add(key)
            unique.append(v)
    return unique


def batch_truth(platform, since, until):
    """From-scratch MapReduce recompute: ``{poi: (count, grade_sum)}``."""
    pairs, _scanned = platform.hotin_update._aggregate(
        since, until, "oracle"
    )
    return {poi_id: (count, gsum) for poi_id, (count, gsum) in pairs}


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestIncrementalOracle:
    @pytest.mark.parametrize("seed", [0, 7, 2015])
    def test_incremental_equals_batch_recompute(self, seed):
        with make_platform() as platform:
            visits = make_visits(seed)
            rng = random.Random(seed + 1)
            # Interleave submissions in random-sized chunks so applier
            # batches cut the stream differently every seed.
            i = 0
            while i < len(visits):
                chunk = visits[i:i + rng.randrange(1, 17)]
                platform.ingest_visits(chunk)
                i += len(chunk)
            assert platform.ingest.drain()

            truth = batch_truth(platform, *WINDOW)
            observed = platform.incremental_hotin.snapshot(*WINDOW)
            assert observed == truth

            report = platform.reconcile_hotin(*WINDOW)
            assert report.in_sync
            assert report.mismatched == 0

    def test_any_window_sums_exactly(self):
        with make_platform() as platform:
            platform.ingest_visits(make_visits(42))
            assert platform.ingest.drain()
            for since, until in [(0, 2500), (2500, 7500), (9000, 10_000)]:
                truth = batch_truth(platform, since, until)
                assert platform.incremental_hotin.snapshot(
                    since, until
                ) == truth

    def test_poi_rows_track_incremental_aggregates(self):
        with make_platform() as platform:
            visits = make_visits(3)
            platform.ingest_visits(visits)
            assert platform.ingest.drain()
            truth = batch_truth(platform, *WINDOW)
            for poi_id, (count, gsum) in truth.items():
                poi = platform.poi_repository.get(poi_id)
                assert poi.hotness == float(count)
                assert poi.interest == gsum / count
            # Freshness: the event-time watermark reached the stream's end.
            assert platform.incremental_hotin.watermark == max(
                v.timestamp for v in visits
            )


class TestReconcile:
    def test_reconcile_repairs_out_of_band_writes(self):
        with make_platform() as platform:
            platform.ingest_visits(make_visits(11, n=100))
            assert platform.ingest.drain()
            # Out-of-band single-put path: the table moves, the
            # incremental state does not.
            rogue = [
                VisitStruct(user_id=900 + i, poi_id=5, timestamp=500 + i,
                            grade=1.0)
                for i in range(4)
            ]
            for v in rogue:
                platform.visits_repository.store(v)
            truth = batch_truth(platform, *WINDOW)
            assert platform.incremental_hotin.snapshot(*WINDOW) != truth

            report = platform.reconcile_hotin(*WINDOW)
            assert not report.in_sync
            assert report.mismatched >= 1
            assert platform.incremental_hotin.snapshot(*WINDOW) == truth
            # Idempotent: a second pass over the same window is clean.
            assert platform.reconcile_hotin(*WINDOW).in_sync

    def test_reconcile_rewrites_poi_rows(self):
        with make_platform() as platform:
            platform.ingest_visits(make_visits(13, n=60))
            assert platform.ingest.drain()
            platform.poi_repository.update_hotin(
                1, hotness=9999.0, interest=-1.0
            )  # corrupt a row out of band
            # Force POI 1 into the mismatch set by storing a rogue visit.
            platform.visits_repository.store(
                VisitStruct(user_id=901, poi_id=1, timestamp=777, grade=0.5)
            )
            platform.reconcile_hotin(*WINDOW)
            truth = batch_truth(platform, *WINDOW)
            count, gsum = truth[1]
            poi = platform.poi_repository.get(1)
            assert poi.hotness == float(count)
            assert poi.interest == gsum / count


class TestCrashRecovery:
    def test_crash_between_commit_and_fold_loses_nothing(self):
        with make_platform(num_partitions=1, max_batch=512) as platform:
            tier = platform.ingest
            head = make_visits(21, n=80)
            platform.ingest_visits(head)
            assert tier.drain()
            before = platform.incremental_hotin.deltas_folded

            tier.inject_crash(0)
            tail = make_visits(22, n=40)
            # Keep (user, ts, poi) keys disjoint from the head stream.
            tail = [
                VisitStruct(user_id=v.user_id + 1000, poi_id=v.poi_id,
                            timestamp=v.timestamp, grade=v.grade)
                for v in tail
            ]
            platform.ingest_visits(tail)
            assert wait_for(lambda: tier.crashed_partitions() == [0])

            # The crashed batch group-committed durably but never folded:
            # the incremental state is now behind the table.
            assert platform.incremental_hotin.deltas_folded < (
                before + len(tail)
            )
            assert batch_truth(platform, *WINDOW) != (
                platform.incremental_hotin.snapshot(*WINDOW)
            ) or tier._queues[0].depth() > 0

            replayed = tier.recover(0)
            assert replayed >= 1  # the committed-but-unfolded suffix
            assert tier.drain()  # the queued remainder lands normally

            # Exactly-once: equality with the batch recompute rules out
            # both lost folds and WAL-replay double counts.
            truth = batch_truth(platform, *WINDOW)
            assert platform.incremental_hotin.snapshot(*WINDOW) == truth
            assert platform.incremental_hotin.deltas_folded == (
                before + len(tail)
            )
            assert platform.reconcile_hotin(*WINDOW).in_sync
            assert tier.recoveries == 1

    def test_recover_refuses_healthy_partition(self):
        with make_platform() as platform:
            from repro.errors import ValidationError

            with pytest.raises(ValidationError):
                platform.ingest.recover(0)


class TestRepartitioning:
    def test_rebalance_mid_stream_preserves_aggregates(self):
        with make_platform(num_partitions=3, max_batch=16) as platform:
            tier = platform.ingest
            visits = make_visits(31, n=400, num_users=60)
            third = len(visits) // 3
            platform.ingest_visits(visits[:third])
            event = tier.maybe_rebalance(force=True)
            platform.ingest_visits(visits[third:2 * third])
            tier.maybe_rebalance(force=True)
            platform.ingest_visits(visits[2 * third:])
            assert tier.drain()

            truth = batch_truth(platform, *WINDOW)
            assert platform.incremental_hotin.snapshot(*WINDOW) == truth
            if event is not None:
                assert event["from_partition"] != event["to_partition"]
                assert tier.rebalances >= 1
                assert tier.rebalance_log

    def test_hot_partition_donates_a_region(self):
        with make_platform(num_partitions=2) as platform:
            tier = platform.ingest
            with tier._lock:
                partition_of = dict(tier._partition_of)
            hot_regions = [r for r, p in partition_of.items() if p == 0]
            assert len(hot_regions) >= 2
            # Fabricate a skewed observation window: all load on 0.
            with tier._lock:
                tier._region_counts = {r: 100 for r in hot_regions}
            event = tier.maybe_rebalance()
            assert event is not None
            assert event["from_partition"] == 0
            assert event["to_partition"] == 1
            with tier._lock:
                assert tier._partition_of[event["moved_region"]] == 1

    def test_balanced_load_is_left_alone(self):
        with make_platform(num_partitions=2) as platform:
            tier = platform.ingest
            with tier._lock:
                partition_of = dict(tier._partition_of)
                tier._region_counts = {r: 50 for r in partition_of}
            assert tier.maybe_rebalance() is None


class TestSchedulerWiring:
    def test_reconcile_replaces_batch_job(self):
        from repro.core.scheduler import (
            HOTIN_RECONCILE_PERIOD_S,
            build_platform_scheduler,
        )

        with make_platform() as platform:
            scheduler = build_platform_scheduler(platform)
            names = set(scheduler._jobs)
            assert "hotin_reconcile" in names
            assert "ingest_rebalance" in names
            assert "hotin_update" not in names

            platform.ingest_visits(make_visits(5, n=50))
            assert platform.ingest.drain()
            scheduler.advance_to(HOTIN_RECONCILE_PERIOD_S + 1)
            job = scheduler.job("hotin_reconcile")
            assert job.fire_count == 1
            assert job.last_error is None


class TestIncrementalUnit:
    def test_fold_and_window_sums(self):
        inc = IncrementalHotIn()
        inc.fold([(1, 10, 0.5), (1, 20, 1.0), (2, 10, 0.25)])
        assert inc.snapshot() == {1: (2, 1.5), 2: (1, 0.25)}
        assert inc.snapshot(since=15) == {1: (1, 1.0)}
        assert inc.snapshot(until=15) == {1: (1, 0.5), 2: (1, 0.25)}
        assert inc.pairs() == [(1, (2, 0.75)), (2, (1, 0.25))]

    def test_folds_commute(self):
        deltas = [(i % 3, i, 0.25 * (i % 5)) for i in range(50)]
        a, b = IncrementalHotIn(), IncrementalHotIn()
        a.fold(deltas)
        b.fold(reversed(deltas))
        assert a.snapshot() == b.snapshot()

    def test_prune_bounds_memory(self):
        inc = IncrementalHotIn()
        inc.fold([(1, ts, 1.0) for ts in range(10)])
        removed = inc.prune(5)
        assert removed == 5
        assert inc.pruned_below == 5
        assert inc.snapshot() == {1: (5, 5.0)}

    def test_repair_window_is_idempotent(self):
        inc = IncrementalHotIn()
        inc.fold([(1, 10, 1.0), (1, 20, 1.0)])
        inc.repair_window(1, 0, 100, count=5, grade_sum=2.5)
        assert inc.snapshot(0, 100) == {1: (5, 2.5)}
        inc.repair_window(1, 0, 100, count=5, grade_sum=2.5)
        assert inc.snapshot(0, 100) == {1: (5, 2.5)}
