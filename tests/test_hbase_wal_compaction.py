"""Tests for the write-ahead log, crash recovery and minor compaction."""

import pytest

from repro.errors import StorageError
from repro.hbase import Cell, Region, RegionWALHandle
from repro.hbase.wal import WALRecord


def cell(row, ts=1, value=b"v", qualifier=b"q", delete=False):
    return Cell(row=row, family="f", qualifier=qualifier, timestamp=ts,
                value=value, is_delete=delete)


def crash_and_replay(region):
    """The one recovery path: the memstores die with the server, the
    log and the store files survive, the log is replayed."""
    region.crash()
    region.replay_cells(region.wal.replay())
    return region


class TestWriteAheadLog:
    def test_append_assigns_increasing_sequences(self):
        wal = RegionWALHandle()
        s1 = wal.append(cell(b"a"))
        s2 = wal.append(cell(b"b"))
        assert s2 == s1 + 1
        assert wal.last_sequence == s2
        assert len(wal) == 2

    def test_replay_in_order(self):
        wal = RegionWALHandle()
        for row in (b"x", b"y", b"z"):
            wal.append(cell(row))
        assert [c.row for c in wal.replay()] == [b"x", b"y", b"z"]

    def test_truncate(self):
        wal = RegionWALHandle()
        for row in (b"a", b"b", b"c"):
            wal.append(cell(row))
        dropped = wal.truncate_to(2)
        assert dropped == 2
        assert [c.row for c in wal.replay()] == [b"c"]

    def test_replay_stops_at_torn_tail(self):
        wal = RegionWALHandle()
        wal.append(cell(b"good1"))
        wal.append(cell(b"good2"))
        wal.append(cell(b"torn"))
        wal.corrupt_tail()
        assert [c.row for c in wal.replay()] == [b"good1", b"good2"]

    def test_corrupt_empty_log_rejected(self):
        with pytest.raises(StorageError):
            RegionWALHandle().corrupt_tail()

    def test_record_checksum_detects_tampering(self):
        wal = RegionWALHandle()
        wal.append(cell(b"r", value=b"original"))
        record = next(wal.records_after(0))
        assert record.is_valid()
        forged = WALRecord(
            sequence=record.sequence,
            cell=cell(b"r", value=b"forged"),
            crc=record.crc,
        )
        assert not forged.is_valid()


class TestGroupCommit:
    """The streaming tier's batched write path: one WAL sync boundary
    per batch, but recovery must be indistinguishable from single puts."""

    def test_append_batch_is_one_sync_boundary(self):
        wal = RegionWALHandle()
        first, last = wal.append_batch([cell(b"a"), cell(b"b"), cell(b"c")])
        assert (last - first + 1) == 3
        assert len(wal) == 3
        assert wal.sync_count == 1  # the group commit

        single = RegionWALHandle()
        for row in (b"a", b"b", b"c"):
            single.append(cell(row))
        assert single.sync_count == 3  # one fsync-equivalent per put

    def test_empty_batch_is_a_noop(self):
        wal = RegionWALHandle()
        assert wal.append_batch([]) == (0, 0)
        assert wal.sync_count == 0
        assert len(wal) == 0

    def test_batched_replay_identical_to_single_puts_after_crash(self):
        rows = [b"row%02d" % i for i in range(8)]
        cells = [cell(r, ts=i + 1, value=b"v%d" % i) for i, r in enumerate(rows)]

        single_wal = RegionWALHandle()
        single_region = Region(families=["f"], wal=single_wal)
        for c in cells:
            single_region.put(c)

        batched_wal = RegionWALHandle()
        batched_region = Region(families=["f"], wal=batched_wal)
        batched_region.put_batch(cells)

        # Crash both: memstores lost, WALs survive.  Replay must agree
        # record-for-record regardless of how the writes were committed.
        replayed_single = [(c.row, c.timestamp, c.value)
                           for c in single_wal.replay()]
        replayed_batched = [(c.row, c.timestamp, c.value)
                            for c in batched_wal.replay()]
        assert replayed_batched == replayed_single

        recovered = crash_and_replay(batched_region)
        for i, r in enumerate(rows):
            assert recovered.get(r, "f", b"q") == b"v%d" % i

    def test_torn_tail_in_batch_loses_only_final_record(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        region.put_batch([cell(b"a"), cell(b"b"), cell(b"c")])
        wal.corrupt_tail()
        recovered = crash_and_replay(region)
        assert recovered.get(b"a", "f", b"q") == b"v"
        assert recovered.get(b"b", "f", b"q") == b"v"
        assert recovered.get(b"c", "f", b"q") is None

    def test_records_after_watermark(self):
        wal = RegionWALHandle()
        seqs = [wal.append(cell(b"r%d" % i)) for i in range(5)]
        watermark = seqs[1]
        tail = list(wal.records_after(watermark))
        assert [rec.sequence for rec in tail] == seqs[2:]
        # A torn tail ends the iteration early rather than yielding junk.
        wal.corrupt_tail()
        assert [rec.sequence for rec in wal.records_after(watermark)] == seqs[2:-1]

    def test_put_batch_validates_before_any_effect(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        bad = [cell(b"ok"), Cell(row=b"bad", family="nope", qualifier=b"q",
                                 timestamp=1, value=b"v")]
        with pytest.raises(StorageError):
            region.put_batch(bad)
        # All-or-nothing: the valid cell must not have half-applied.
        assert len(wal) == 0
        assert region.get(b"ok", "f", b"q") is None

    def test_put_batch_counts_and_seqid(self):
        region = Region(families=["f"], wal=RegionWALHandle())
        before = region.data_seqid
        region.put_batch([cell(b"a"), cell(b"b")])
        assert region.write_count == 2
        assert region.data_seqid == before + 2

    def test_batch_duplicate_rows_last_wins(self):
        region = Region(families=["f"], wal=RegionWALHandle())
        region.put_batch([cell(b"dup", ts=1, value=b"first"),
                          cell(b"dup", ts=1, value=b"second")])
        assert region.get(b"dup", "f", b"q") == b"second"

    def test_batch_merges_with_existing_memstore(self):
        region = Region(families=["f"], wal=RegionWALHandle())
        region.put(cell(b"b", value=b"old-b"))
        region.put(cell(b"d", value=b"old-d"))
        region.put_batch([cell(b"a", value=b"new-a"),
                          cell(b"b", value=b"new-b"),
                          cell(b"e", value=b"new-e")])
        assert region.get(b"a", "f", b"q") == b"new-a"
        assert region.get(b"b", "f", b"q") == b"new-b"  # replaced
        assert region.get(b"d", "f", b"q") == b"old-d"  # untouched
        assert region.get(b"e", "f", b"q") == b"new-e"
        scanned = [c.row for c in region.scan("f")]
        assert scanned == sorted(scanned)  # memstore order survives merge


class TestMemStoreSegments:
    """Lazy segment consolidation must be invisible to readers."""

    def _memstore(self):
        from repro.hbase.memstore import MemStore

        return MemStore()

    def test_put_after_put_batch_wins_on_same_key(self):
        store = self._memstore()
        store.put_batch([cell(b"k", ts=1, value=b"batched"),
                         cell(b"m", ts=1)])
        store.put(cell(b"k", ts=1, value=b"later-single"))
        cells = store.snapshot()
        assert [c.row for c in cells] == [b"k", b"m"]
        assert cells[0].value == b"later-single"

    def test_cross_batch_duplicates_last_wins(self):
        store = self._memstore()
        store.put_batch([cell(b"k", ts=1, value=b"one"),
                         cell(b"a", ts=1)])
        store.put_batch([cell(b"k", ts=1, value=b"two"),
                         cell(b"z", ts=1)])
        store.put_batch([cell(b"k", ts=1, value=b"three")])
        assert len(store) == 3  # a, k, z after consolidation
        snap = {c.row: c.value for c in store.snapshot()}
        assert snap[b"k"] == b"three"

    def test_scan_consolidates_and_bounds(self):
        store = self._memstore()
        store.put(cell(b"b", ts=1))
        store.put_batch([cell(b"d", ts=1), cell(b"a", ts=1),
                         cell(b"c", ts=1)])
        rows = [c.row for c in store.scan(start_row=b"b", stop_row=b"d")]
        assert rows == [b"b", b"c"]
        assert [c.row for c in store.scan()] == [b"a", b"b", b"c", b"d"]

    def test_segments_match_sequential_puts(self):
        import random

        rng = random.Random(5)
        rows = [b"%03d" % rng.randrange(60) for _ in range(200)]
        sequential, segmented = self._memstore(), self._memstore()
        for i, row in enumerate(rows):
            sequential.put(cell(row, ts=1, value=b"%d" % i))
        batched = [cell(row, ts=1, value=b"%d" % i)
                   for i, row in enumerate(rows)]
        for start in range(0, len(batched), 16):
            segmented.put_batch(batched[start:start + 16])
        want = [(c.row, c.value) for c in sequential.snapshot()]
        got = [(c.row, c.value) for c in segmented.snapshot()]
        assert got == want
        assert segmented.size_bytes == sequential.size_bytes


class TestCrashRecovery:
    def test_unflushed_writes_recovered(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        region.put(cell(b"a", value=b"1"))
        region.put(cell(b"b", value=b"2"))
        # Crash: the memstore is lost; the WAL survives.
        recovered = crash_and_replay(region)
        assert recovered.get(b"a", "f", b"q") == b"1"
        assert recovered.get(b"b", "f", b"q") == b"2"

    def test_flush_truncates_wal(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        region.put(cell(b"a"))
        region.put(cell(b"b"))
        assert len(wal) == 2
        region.flush()  # full flush -> everything durable in store files
        assert len(wal) == 0

    def test_recovery_after_flush_and_more_writes(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        region.put(cell(b"flushed", value=b"old"))
        region.flush()
        region.put(cell(b"unflushed", value=b"new"))
        # Crash: the store file survives, the WAL holds only the rest.
        assert len(wal) == 1
        recovered = crash_and_replay(region)
        assert recovered.store_file_count("f") == 1
        assert recovered.get(b"flushed", "f", b"q") == b"old"
        assert recovered.get(b"unflushed", "f", b"q") == b"new"

    def test_recovered_deletes_still_shadow(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        region.put(cell(b"r", ts=1))
        region.delete(b"r", "f", b"q", timestamp=2)
        recovered = crash_and_replay(region)
        assert recovered.get(b"r", "f", b"q") is None

    def test_torn_tail_loses_only_last_write(self):
        wal = RegionWALHandle()
        region = Region(families=["f"], wal=wal)
        region.put(cell(b"a"))
        region.put(cell(b"b"))
        wal.corrupt_tail()
        recovered = crash_and_replay(region)
        assert recovered.get(b"a", "f", b"q") == b"v"
        assert recovered.get(b"b", "f", b"q") is None


class TestMinorCompaction:
    def test_merges_files_without_dropping_tombstones(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=1, value=b"live"))
        region.flush()
        region.delete(b"r", "f", b"q", timestamp=2)
        region.flush()
        assert region.store_file_count("f") == 2
        region.minor_compact("f")
        assert region.store_file_count("f") == 1
        # The tombstone still shadows the put after minor compaction.
        assert region.get(b"r", "f", b"q") is None
        # All versions (put + tombstone) survive; a major compaction
        # is what finally drops them.
        assert region.approx_rows("f") == 2
        region.compact()
        assert region.approx_rows("f") == 0

    def test_automatic_minor_compaction_threshold(self):
        region = Region(families=["f"], minor_compaction_threshold=3)
        for i in range(6):
            region.put(cell(b"row%d" % i))
            region.flush()
        # Never accumulates 3+ files: each threshold hit merges to one.
        assert region.store_file_count("f") < 3
        for i in range(6):
            assert region.get(b"row%d" % i, "f", b"q") == b"v"

    def test_single_file_noop(self):
        region = Region(families=["f"])
        region.put(cell(b"a"))
        region.flush()
        region.minor_compact("f")
        assert region.store_file_count("f") == 1

    def test_preserves_all_versions(self):
        region = Region(families=["f"])
        for ts in (1, 2, 3):
            region.put(cell(b"r", ts=ts, value=b"v%d" % ts))
            region.flush()
        region.minor_compact("f")
        assert region.approx_rows("f") == 3
        assert region.get(b"r", "f", b"q") == b"v3"
