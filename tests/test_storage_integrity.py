"""Checksummed storage: verify-on-read, scrub-and-repair, quarantine.

The contract under test: a corrupt store-file block is NEVER silently
served — reads touching it raise :class:`ChecksumError` — and the
scheduled scrubber either rebuilds the block byte-identically from the
WAL (live tail + flush archive) or quarantines it so reads keep failing
loudly.  Disk corruption is injected through the seeded fault injector,
so every drill replays exactly.
"""

import pytest

from repro.config import (
    ClusterConfig,
    FaultsConfig,
    PlatformConfig,
)
from repro.core.faults import FAULT_DISK
from repro.core.modules.query_answering import SearchQuery
from repro.core.platform import MoDisSENSE
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.errors import ChecksumError, ConfigError
from repro.hbase import Cell, StoreFile


def _cells(n, family="d", ts=1):
    return [
        Cell(row=b"row%05d" % i, family=family, qualifier=b"q",
             timestamp=ts, value=b"value-%d" % i)
        for i in range(n)
    ]


def _platform(seed=42):
    cfg = PlatformConfig()
    cfg.cluster = ClusterConfig(num_nodes=4, regions_per_table=8)
    cfg.faults = FaultsConfig(enabled=True, seed=seed)
    p = MoDisSENSE(cfg)
    p.poi_repository.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                             keywords=("x",), category="cafe"))
    for uid in range(1, 40):
        p.visits_repository.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5, poi_name="A",
            lat=37.98, lon=23.73, keywords=("x",)))
    return p


QUERY = SearchQuery(friend_ids=tuple(range(1, 40)), sort_by="hotness")


class TestStoreFileChecksums:
    def test_blocks_cover_the_file(self):
        sf = StoreFile(_cells(150), block_cells=64)
        assert sf.block_count == 3
        ranges = sf.block_ranges()
        assert ranges[0][0] == sf.cells()[0].sort_key()
        assert ranges[-1][1] == sf.cells()[-1].sort_key()

    def test_corrupt_block_fails_scan_loudly(self):
        sf = StoreFile(_cells(150), block_cells=64)
        sf.corrupt_block(1)
        with pytest.raises(ChecksumError):
            list(sf.scan())
        # A range that avoids the bad block still serves.
        assert len(list(sf.scan(b"row00000", b"row00010"))) == 10
        # A range inside the bad block fails before yielding anything.
        with pytest.raises(ChecksumError):
            list(sf.scan(b"row00070", b"row00080"))

    def test_corruption_never_mutates_the_original_cell(self):
        cells = _cells(10)
        sf = StoreFile(cells, block_cells=4)
        sf.corrupt_block(0)
        # The caller's cell objects — which WAL records alias — must be
        # intact, or the repair source itself would be corrupt.
        assert cells[0].value == b"value-0"

    def test_torn_tail_detected_at_end_of_file(self):
        sf = StoreFile(_cells(130), block_cells=64)
        assert sf.tear_tail(drop=1) == 1
        with pytest.raises(ChecksumError):
            list(sf.scan())  # full scan reaches (and checks) the tail
        assert sf.verify() == [2]

    def test_verify_reports_without_raising(self):
        sf = StoreFile(_cells(150), block_cells=64)
        assert sf.verify() == []
        sf.corrupt_block(0)
        sf.corrupt_block(2)
        assert sf.verify() == [0, 2]
        # verify() memoizes intact blocks; reads of them stay cheap+ok.
        assert len(list(sf.scan(b"row00064", b"row00070"))) == 6

    def test_rebuild_accepts_only_crc_identical_cells(self):
        original = _cells(100)
        sf = StoreFile(original, block_cells=64)
        sf.corrupt_block(0)
        wrong = [
            Cell(row=c.row, family=c.family, qualifier=c.qualifier,
                 timestamp=c.timestamp, value=b"tampered")
            for c in original[:64]
        ]
        assert not sf.rebuild_block(0, wrong)
        assert not sf.rebuild_block(0, original[:63])  # wrong count
        assert sf.rebuild_block(0, original[:64])
        assert sf.verify() == []
        assert [c.value for c in sf.scan()] == [c.value for c in original]

    def test_quarantined_block_keeps_failing_after_verify(self):
        sf = StoreFile(_cells(100), block_cells=64)
        sf.corrupt_block(1)
        sf.quarantine_block(1)
        assert sf.verify() == [1]
        with pytest.raises(ChecksumError):
            list(sf.scan(b"row00064", None))

    def test_small_file_single_block(self):
        sf = StoreFile(_cells(5), block_cells=64)
        assert sf.block_count == 1
        sf.corrupt_block(0)
        with pytest.raises(ChecksumError):
            sf.cells()


class TestDiskCorruptionInjector:
    def test_deterministic_targets(self):
        # Region/file ids come from process-global counters, so two
        # platform instances disagree on raw ids; the *structural* pick
        # (which region slot, which file slot, which block) must match.
        def normalize(p, hit):
            table = p.visits_repository.table
            pos = {r.region_id: i for i, r in enumerate(table.regions)}
            out = []
            for rid, family, file_id, block in hit:
                region = table.regions[pos[rid]]
                files = [sf.file_id
                         for sf in region.store_files_for(family)]
                out.append((pos[rid], family, files.index(file_id), block))
            return out

        hits = []
        for _ in range(2):
            p = _platform(seed=99)
            p.hbase.flush_all()
            hit = p.fault_injector.inject_disk_corruption(
                p.hbase, "visits", events=2)
            hits.append(normalize(p, hit))
            p.shutdown()
        assert hits[0] == hits[1]
        assert len(hits[0]) == 2

    def test_no_store_files_no_damage(self):
        p = _platform()
        # Nothing flushed yet: injection is a no-op, not an error.
        assert p.fault_injector.inject_disk_corruption(
            p.hbase, "gps_traces") == []
        p.shutdown()

    def test_events_validated(self):
        p = _platform()
        with pytest.raises(ConfigError):
            p.fault_injector.inject_disk_corruption(
                p.hbase, "visits", events=0)
        p.shutdown()

    def test_emits_kept_fault_events(self):
        p = _platform()
        p.hbase.flush_all()
        hit = p.fault_injector.inject_disk_corruption(p.hbase, "visits")
        events = p.telemetry.events.query(event_type="fault.injected")
        assert any(e.get("action") == FAULT_DISK for e in events)
        assert hit
        p.shutdown()


class TestScrubAndRepair:
    def test_bit_flip_repaired_from_wal_archive(self):
        oracle = _platform()
        expected = oracle.search(QUERY)
        p = _platform()
        baseline = p.search(QUERY)
        assert [pp.score for pp in baseline.pois] == [
            pp.score for pp in expected.pois]

        # Flush so visits live in store files, then rot a block.  The
        # flush truncated the WAL — the repair source is the archive.
        p.hbase.flush_all()
        hit = p.fault_injector.inject_disk_corruption(p.hbase, "visits")
        assert hit
        summary = p.supervisor.force_scrub()
        assert summary["blocks_corrupt"] >= 1
        assert summary["blocks_repaired"] >= 1
        assert summary["blocks_quarantined"] == 0
        # Repaired bytes serve again, identical to the oracle.
        healed = p.search(QUERY)
        assert [pp.score for pp in healed.pois] == [
            pp.score for pp in expected.pois]
        assert not healed.degraded
        repairs = p.telemetry.events.query(event_type="scrub.repair")
        assert repairs
        assert p.metrics.counter("scrub.repaired") >= 1
        p.shutdown()
        oracle.shutdown()

    def test_clean_pass_scans_everything_and_repairs_nothing(self):
        p = _platform()
        p.hbase.flush_all()
        summary = p.supervisor.force_scrub()
        assert summary["blocks_scanned"] > 0
        assert summary["blocks_corrupt"] == 0
        assert summary["blocks_repaired"] == 0
        assert summary["blocks_quarantined"] == 0
        p.shutdown()

    def test_torn_store_file_tail_repaired(self):
        p = _platform()
        p.hbase.flush_all()
        hit = p.fault_injector.inject_disk_corruption(
            p.hbase, "visits", tear_tail=True)
        assert hit
        summary = p.supervisor.force_scrub()
        assert summary["blocks_corrupt"] >= 1
        assert summary["blocks_repaired"] >= 1
        p.shutdown()

    def test_unrepairable_block_is_quarantined_not_served(self):
        p = _platform()
        p.hbase.flush_all()
        # Destroy the repair source: wipe the WAL archives, then rot a
        # block.  The scrubber must quarantine, and reads must fail
        # loudly rather than return damaged rows.
        for region in p.visits_repository.table.regions:
            region.wal.server._archive.clear()
            region.wal.truncate_to(region.wal.last_sequence)
        hit = p.fault_injector.inject_disk_corruption(p.hbase, "visits")
        assert hit
        summary = p.supervisor.force_scrub()
        assert summary["blocks_repaired"] == 0
        assert summary["blocks_quarantined"] >= 1
        rid = hit[0][0]
        region = next(r for r in p.visits_repository.table.regions
                      if r.region_id == rid)
        with pytest.raises(ChecksumError):
            list(region.scan(hit[0][1]))
        quarantines = p.telemetry.events.query(
            event_type="scrub.quarantine")
        assert quarantines
        p.shutdown()

    def test_torn_wal_tail_dropped_by_scrub(self):
        p = _platform()
        region = next(r for r in p.visits_repository.table.regions
                      if r.wal is not None and len(r.wal) > 0)
        region.wal.corrupt_tail()
        summary = p.supervisor.force_scrub()
        assert summary["wal_records_dropped"] == 1
        events = p.telemetry.events.query(event_type="scrub.wal_torn")
        assert events and events[0]["region"] == region.region_id
        p.shutdown()

    def test_integrity_slo_stays_healthy_after_repair(self):
        from repro.core.scheduler import build_platform_scheduler

        p = _platform()
        scheduler = build_platform_scheduler(p)
        p.hbase.flush_all()
        p.fault_injector.inject_disk_corruption(p.hbase, "visits")
        p.supervisor.force_scrub()
        scheduler.advance_by(2.0)  # scrape the counters
        health = p.telemetry.health()
        integrity = [s for s in health["slos"]
                     if s["name"] == "storage_integrity"]
        assert integrity
        # One corrupt block out of hundreds scanned burns well under
        # the 0.1% error budget's critical rate only if repair worked;
        # either way the SLO must exist and carry data.
        assert integrity[0]["state"] in ("healthy", "warning", "critical")
        p.shutdown()
