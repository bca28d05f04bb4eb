"""Self-healing cluster drills: heartbeat leases, WAL-split recovery.

The contract under test: with the supervisor enabled, a seeded node
kill heals itself — missed heartbeats expire the lease, the dead
server's WAL is split by region, regions reopen on survivors with their
unflushed cells replayed — and post-recovery answers are byte-identical
to a never-failed oracle, with no test-harness ``recover_node`` call
anywhere.  The supervisor acts only on its ticks: unticked, behavior is
exactly the manual fail/recover model.
"""

import warnings

import pytest

from repro.cluster import ClusterSimulation
from repro.config import (
    ClusterConfig,
    FaultsConfig,
    PlatformConfig,
)
from repro.core.modules.query_answering import SearchQuery
from repro.core.platform import MoDisSENSE
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.core.scheduler import build_platform_scheduler
from repro.core.supervisor import HEARTBEAT_PERIOD_S, LEASE_TIMEOUT_S
from repro.errors import ConfigError
from repro.hbase import Cell, HBaseCluster, RegionWALHandle, ServerWAL


def _fingerprint(result):
    return (
        [(p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
         for p in result.pois],
        result.degraded,
        result.coverage,
    )


def _platform(nodes=4, regions=8, faults=True, seed=42):
    cfg = PlatformConfig()
    cfg.cluster = ClusterConfig(num_nodes=nodes, regions_per_table=regions)
    if faults:
        cfg.faults = FaultsConfig(enabled=True, seed=seed)
    p = MoDisSENSE(cfg)
    p.poi_repository.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                             keywords=("x",), category="cafe"))
    return p


def _seed_visits(p, users=40):
    for uid in range(1, users):
        p.visits_repository.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5, poi_name="A",
            lat=37.98, lon=23.73, keywords=("x",)))


QUERY = SearchQuery(friend_ids=tuple(range(1, 40)), sort_by="hotness")


def _cell(row, ts=1, family="d", value=b"v"):
    return Cell(row=row, family=family, qualifier=b"q", timestamp=ts,
                value=value)


class TestServerWAL:
    """The per-server log + per-region handle that recovery splits."""

    def test_handle_matches_plain_wal_semantics(self):
        # One class, two homes: a private log and a shared server's.
        private = RegionWALHandle()
        server = ServerWAL(node_id=0)
        handle = RegionWALHandle(server, region_id=7)
        cells = [_cell(b"r%d" % i, ts=i) for i in range(5)]
        for log in (private, handle):
            assert log.append(cells[0]) == 1
            assert log.append_batch(cells[1:4]) == (2, 4)
            assert log.append_batch([]) == (0, 0)
            assert log.last_sequence == 4
            assert len(log) == 4
            assert log.sync_count == 2
            assert [r.sequence for r in log.records_after(1)] == [2, 3, 4]
        assert list(private.replay()) == list(handle.replay())

    def test_truncate_archives_instead_of_discarding(self):
        server = ServerWAL(node_id=0)
        handle = RegionWALHandle(server, region_id=3)
        handle.append_batch([_cell(b"r%d" % i, ts=i) for i in range(4)])
        assert handle.truncate_to(2) == 2
        assert len(handle) == 2
        archived = server.archived_for(3)
        assert [r.sequence for r in archived] == [1, 2]

    def test_archive_capacity_bounds_per_region(self):
        server = ServerWAL(node_id=0, archive_capacity=3)
        handle = RegionWALHandle(server, region_id=1)
        handle.append_batch([_cell(b"r%d" % i, ts=i) for i in range(10)])
        handle.truncate_to(10)
        assert [r.sequence for r in server.archived_for(1)] == [8, 9, 10]

    def test_split_by_region_partitions_live_records(self):
        server = ServerWAL(node_id=0)
        h1 = RegionWALHandle(server, region_id=1)
        h2 = RegionWALHandle(server, region_id=2)
        h1.append(_cell(b"a"))
        h2.append_batch([_cell(b"b"), _cell(b"c")])
        split = server.split_by_region()
        assert set(split) == {1, 2}
        assert len(split[1]) == 1 and len(split[2]) == 2

    def test_rehome_moves_live_and_archived_records(self):
        old = ServerWAL(node_id=0)
        new = ServerWAL(node_id=1)
        handle = RegionWALHandle(old, region_id=5)
        handle.append_batch([_cell(b"r%d" % i, ts=i) for i in range(4)])
        handle.truncate_to(2)
        handle.rehome(new)
        assert handle.server is new
        assert old.records_for(5) == [] and old.archived_for(5) == []
        assert [r.sequence for r in new.records_for(5)] == [3, 4]
        assert [r.sequence for r in new.archived_for(5)] == [1, 2]
        # Appends continue with the same per-region sequence counter.
        assert handle.append(_cell(b"z", ts=99)) == 5

    def test_drop_torn_tail(self):
        for log in (RegionWALHandle(),
                    RegionWALHandle(ServerWAL(0), region_id=1)):
            log.append_batch([_cell(b"r%d" % i, ts=i) for i in range(3)])
            log.corrupt_tail()
            assert len(list(log.replay())) == 2
            assert log.drop_torn_tail() == 1
            assert len(list(log.replay())) == 2
            assert log.drop_torn_tail() == 0


class TestFailNodeValidation:
    """Regression: fail_node must validate before mutating state."""

    def test_rejected_failure_leaves_node_live(self):
        sim = ClusterSimulation(ClusterConfig(num_nodes=2))
        sim.place_regions(list(range(4)))
        sim.fail_node(0)
        with pytest.raises(ConfigError):
            sim.fail_node(1)
        # The failed call must not have marked node 1 failed: it still
        # serves, and recovery of node 0 still has a survivor to lean on.
        assert sim.is_live(1)
        assert sim.live_node_count == 1
        assert all(n == 1 for n in sim.region_placement.values())
        sim.recover_node(0)
        assert sim.live_node_count == 2

    def test_crash_node_validates_before_mutating(self):
        sim = ClusterSimulation(ClusterConfig(num_nodes=2))
        sim.place_regions(list(range(4)))
        sim.crash_node(0)
        with pytest.raises(ConfigError):
            sim.crash_node(1)
        assert sim.is_live(1)


class TestCrashSemantics:
    def test_crash_strands_regions_in_place(self):
        sim = ClusterSimulation(ClusterConfig(num_nodes=4))
        sim.place_regions(list(range(8)))
        stranded = sim.crash_node(1)
        assert stranded == sim.regions_on(1)
        assert not sim.is_live(1)
        # Unlike fail_node, placement still points at the corpse.
        assert all(sim.region_placement[r] == 1 for r in stranded)

    def test_reassign_validates_targets(self):
        sim = ClusterSimulation(ClusterConfig(num_nodes=4))
        sim.place_regions(list(range(8)))
        sim.crash_node(1)
        stranded = sim.regions_on(1)
        with pytest.raises(ConfigError):
            sim.reassign_regions({stranded[0]: 1})  # dead target
        with pytest.raises(ConfigError):
            sim.reassign_regions({stranded[0]: 99})  # unknown target
        with pytest.raises(ConfigError):
            sim.reassign_regions({9999: 0})  # unplaced region
        sim.reassign_regions({r: 0 for r in stranded})
        assert all(sim.region_placement[r] == 0 for r in stranded)

    def test_cluster_crash_requires_supervisor(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=4,
                                             regions_per_table=8))
        with pytest.raises(ConfigError):
            cluster.crash_node(0)


class TestEndToEndRecoveryDrill:
    def test_seeded_kill_heals_without_manual_recover(self):
        oracle = _platform()
        _seed_visits(oracle)
        expected = _fingerprint(oracle.search(QUERY))
        assert expected[1] is False and expected[2] == 1.0

        p = _platform()
        _seed_visits(p)
        scheduler = build_platform_scheduler(p)
        victim = 1
        p.fault_injector.schedule_node_event(2, "fail", victim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p.search(QUERY)                    # fan-out 1: clean
            during = p.search(QUERY)           # fan-out 2: crash lands
        assert during.degraded and during.coverage < 1.0

        # No recover_node anywhere: the supervisor's heartbeat job must
        # detect the missed lease and heal.  Advance in sub-lease steps
        # so detection latency is honestly the lease timeout.
        lease, period = LEASE_TIMEOUT_S, HEARTBEAT_PERIOD_S
        for _ in range(int((lease + 2 * period) / period) + 1):
            scheduler.advance_by(period)

        history = p.supervisor.recovery_history
        assert len(history) == 1
        record = history[0]
        assert record["node"] == victim
        assert record["cells_replayed"] > 0
        # MTTR gate: detection + replay within 2x the lease timeout.
        assert record["mttr_s"] <= 2 * lease

        after = p.search(QUERY)
        assert _fingerprint(after) == expected
        p.shutdown()
        oracle.shutdown()

    def test_recovery_emits_events_and_metrics(self):
        p = _platform()
        _seed_visits(p)
        scheduler = build_platform_scheduler(p)
        p.fault_injector.schedule_node_event(1, "fail", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p.search(QUERY)
        for _ in range(8):
            scheduler.advance_by(1.0)
        events = p.telemetry.events.query(event_type="node.lease_missed")
        assert len(events) == 1 and events[0]["node"] == 2
        recovered = p.telemetry.events.query(event_type="region.recovered")
        assert recovered and all(e["from_node"] == 2 for e in recovered)
        assert p.metrics.counter("supervisor.lease_missed") == 1
        assert p.metrics.counter("region.recovered") == len(recovered)
        assert p.metrics.gauge("supervisor.mttr_s") > 0.0
        # The recovery_mttr SLO saw the sample and stayed healthy.
        scheduler.advance_by(1.0)
        health = p.telemetry.health()
        mttr = [s for s in health["slos"] if s["name"] == "recovery_mttr"]
        assert mttr and mttr[0]["state"] == "healthy"
        p.shutdown()

    def test_load_aware_placement_spreads_by_weight(self):
        p = _platform(nodes=4, regions=8)
        _seed_visits(p, users=200)
        sup = p.supervisor
        sim = p.hbase.simulation
        victim = 1
        stranded = sim.regions_on(victim)
        sim._failed_nodes.add(victim)  # place as if dead, without I/O
        mapping = sup._place_on_survivors(stranded)
        sim._failed_nodes.discard(victim)
        assert set(mapping) == set(stranded)
        assert victim not in mapping.values()
        assert all(t in sim.live_nodes() for t in mapping.values())
        p.shutdown()

    def test_node_rejoin_renews_lease(self):
        p = _platform()
        _seed_visits(p)
        scheduler = build_platform_scheduler(p)
        p.fault_injector.schedule_node_event(1, "fail", 3)
        p.fault_injector.schedule_node_event(2, "recover", 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p.search(QUERY)
        for _ in range(6):
            scheduler.advance_by(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p.search(QUERY)  # fan-out 2 applies the recover action
        for _ in range(3):
            scheduler.advance_by(1.0)
        leases = {row["node"]: row for row in p.supervisor.lease_table()}
        assert leases[3]["live"] and not leases[3]["declared_dead"]
        rejoined = p.telemetry.events.query(event_type="node.rejoined")
        assert [e["node"] for e in rejoined] == [3]
        result = p.search(QUERY)
        assert not result.degraded
        p.shutdown()


class TestForcedDrill:
    def test_force_drill_is_a_real_crash_and_recovery(self):
        p = _platform(faults=False)
        _seed_visits(p)
        expected = _fingerprint(p.search(QUERY))
        record = p.supervisor.force_drill()
        assert record["drill"] is True
        assert record["cells_replayed"] >= 0
        assert _fingerprint(p.search(QUERY)) == expected
        p.shutdown()

    def test_force_drill_rejects_dead_or_unknown_node(self):
        p = _platform(faults=False)
        _seed_visits(p)
        p.supervisor.force_drill(node_id=3)
        with pytest.raises(ConfigError):
            p.supervisor.force_drill(node_id=3)  # already dead
        p.shutdown()


class TestIngestExactlyOnce:
    def test_supervisor_replay_never_double_folds(self):
        """WAL-split replay rebuilds *storage*; the ingest tier's fold
        watermarks are untouched, so incremental HotIn state neither
        loses nor double-counts a delta across a node crash."""
        p = _platform(faults=True)
        oracle = _platform(faults=False)
        for plat in (p, oracle):
            for uid in range(1, 40):
                plat.ingest.submit(VisitStruct(
                    user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
                    poi_name="A", lat=37.98, lon=23.73, keywords=("x",)))
            assert plat.ingest.drain(timeout_s=30.0)
        scheduler = build_platform_scheduler(p)
        p.fault_injector.schedule_node_event(1, "fail", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p.search(QUERY)
        for _ in range(6):
            scheduler.advance_by(1.0)
        assert p.supervisor.recovery_history
        # Incremental hotness identical to the never-crashed twin.
        assert (p.incremental_hotin.snapshot()
                == oracle.incremental_hotin.snapshot())
        # Exactly-once, stated directly against the fold watermarks:
        # after WAL-split replay, no region carries a logged record past
        # what the ingest tier already folded — an applier recovery
        # would replay nothing, so no delta can ever land twice.
        for region in p.visits_repository.table.regions:
            if region.wal is None:
                continue
            watermark = p.ingest._folded_seq.get(region.region_id, 0)
            assert list(region.wal.records_after(watermark)) == []
        # Ingestion continues normally on the healed cluster and stays
        # in lockstep with the twin.
        for plat in (p, oracle):
            for uid in range(100, 120):
                plat.ingest.submit(VisitStruct(
                    user_id=uid, poi_id=1, timestamp=uid, grade=1.0,
                    poi_name="A", lat=37.98, lon=23.73, keywords=("x",)))
            assert plat.ingest.drain(timeout_s=30.0)
        assert (p.incremental_hotin.snapshot()
                == oracle.incremental_hotin.snapshot())
        p.shutdown()
        oracle.shutdown()


class TestSupervisorOffUnchanged:
    """An unticked supervisor changes nothing: answers and the manual
    fail/recover model are what a cluster without one gives."""

    def test_results_identical_with_and_without_supervisor(self):
        plain = _platform(faults=False)
        plain.hbase.supervisor = None
        supervised = _platform(faults=False)
        _seed_visits(plain)
        _seed_visits(supervised)
        assert (_fingerprint(plain.search(QUERY))
                == _fingerprint(supervised.search(QUERY)))
        plain.shutdown()
        supervised.shutdown()

    def test_manual_fail_recover_still_works_with_an_unticked_supervisor(
        self,
    ):
        p = _platform()
        _seed_visits(p)
        expected = _fingerprint(p.search(QUERY))
        p.hbase.fail_node(0)
        p.hbase.recover_node(0)
        assert _fingerprint(p.search(QUERY)) == expected
        p.shutdown()
