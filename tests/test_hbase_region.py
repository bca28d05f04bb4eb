"""Tests for regions: writes, versioned reads, tombstones, compaction."""

import pytest

from repro.errors import ColumnFamilyNotFoundError, StorageError
from repro.hbase import Cell, Region
from repro.hbase.filters import PrefixFilter, TimestampRangeFilter


def put(region, row, ts=1, value=b"v", qualifier=b"q", family="f"):
    region.put(
        Cell(row=row, family=family, qualifier=qualifier, timestamp=ts, value=value)
    )


class TestRegionBasics:
    def test_needs_families(self):
        with pytest.raises(StorageError):
            Region(families=[])

    def test_put_get(self):
        region = Region(families=["f"])
        put(region, b"r1", value=b"hello")
        assert region.get(b"r1", "f", b"q") == b"hello"
        assert region.get(b"r2", "f", b"q") is None

    def test_unknown_family_rejected(self):
        region = Region(families=["f"])
        with pytest.raises(ColumnFamilyNotFoundError):
            region.get(b"r", "nope", b"q")

    def test_row_outside_range_rejected(self):
        region = Region(families=["f"], start_key=b"m", end_key=b"t")
        with pytest.raises(StorageError):
            put(region, b"a")
        put(region, b"p")  # inside

    def test_contains_row_boundaries(self):
        region = Region(families=["f"], start_key=b"m", end_key=b"t")
        assert region.contains_row(b"m")  # start inclusive
        assert not region.contains_row(b"t")  # end exclusive

    def test_newest_version_wins(self):
        region = Region(families=["f"])
        put(region, b"r", ts=1, value=b"one")
        put(region, b"r", ts=9, value=b"nine")
        put(region, b"r", ts=5, value=b"five")
        assert region.get(b"r", "f", b"q") == b"nine"

    def test_get_row_multiple_qualifiers(self):
        region = Region(families=["f"])
        put(region, b"r", qualifier=b"a", value=b"1")
        put(region, b"r", qualifier=b"b", value=b"2")
        assert region.get_row(b"r", "f") == {b"a": b"1", b"b": b"2"}


class TestDeletes:
    def test_tombstone_shadows_older_put(self):
        region = Region(families=["f"])
        put(region, b"r", ts=5, value=b"x")
        region.delete(b"r", "f", b"q", timestamp=6)
        assert region.get(b"r", "f", b"q") is None

    def test_newer_put_resurrects(self):
        region = Region(families=["f"])
        put(region, b"r", ts=5)
        region.delete(b"r", "f", b"q", timestamp=6)
        put(region, b"r", ts=7, value=b"back")
        assert region.get(b"r", "f", b"q") == b"back"

    def test_delete_survives_flush(self):
        region = Region(families=["f"])
        put(region, b"r", ts=5)
        region.flush()
        region.delete(b"r", "f", b"q", timestamp=6)
        assert region.get(b"r", "f", b"q") is None
        region.flush()
        assert region.get(b"r", "f", b"q") is None


class TestFlushCompact:
    def test_flush_preserves_reads(self):
        region = Region(families=["f"])
        for i in range(50):
            put(region, b"row%02d" % i, value=b"v%d" % i)
        region.flush()
        for i in range(50):
            assert region.get(b"row%02d" % i, "f", b"q") == b"v%d" % i
        assert region.store_file_count("f") == 1

    def test_same_version_rewrite_in_a_newer_file_wins_every_read(self):
        """Point reads and scans agree on exact key + timestamp ties
        across store files: the newest file's cell."""
        region = Region(families=["f"])
        for value in (b"old", b"new"):
            put(region, b"r", ts=5, value=value)
            region.flush()
        assert [c.value for c in region.scan("f")] == [b"new"]
        assert region.get(b"r", "f", b"q") == b"new"
        assert region.get_row(b"r", "f") == {b"q": b"new"}
        assert [c.value for c in region.get_versions(b"r", "f", b"q")] == [
            b"new"
        ]

    def test_compaction_collapses_files_and_versions(self):
        region = Region(families=["f"])
        for ts in range(1, 6):
            put(region, b"r", ts=ts, value=b"v%d" % ts)
            region.flush()
        assert region.store_file_count("f") == 5
        region.compact()
        assert region.store_file_count("f") == 1
        assert region.get(b"r", "f", b"q") == b"v5"
        # Only one live version remains after major compaction.
        assert region.approx_rows("f") == 1

    def test_compaction_drops_tombstoned_cells(self):
        region = Region(families=["f"])
        put(region, b"dead", ts=1)
        put(region, b"alive", ts=1)
        region.delete(b"dead", "f", b"q", timestamp=2)
        region.compact()
        assert region.get(b"dead", "f", b"q") is None
        assert region.get(b"alive", "f", b"q") == b"v"
        assert region.approx_rows("f") == 1

    def test_automatic_flush_on_threshold(self):
        region = Region(families=["f"], flush_threshold_bytes=500)
        for i in range(30):
            put(region, b"row%02d" % i, value=b"x" * 50)
        assert region.store_file_count("f") >= 1


class TestScan:
    def test_scan_merges_memstore_and_files(self):
        region = Region(families=["f"])
        put(region, b"a")
        region.flush()
        put(region, b"b")
        rows = [c.row for c in region.scan("f")]
        assert rows == [b"a", b"b"]

    def test_scan_yields_only_newest_live_version(self):
        region = Region(families=["f"])
        put(region, b"r", ts=1, value=b"old")
        region.flush()
        put(region, b"r", ts=2, value=b"new")
        cells = list(region.scan("f"))
        assert len(cells) == 1
        assert cells[0].value == b"new"

    def test_scan_skips_deleted(self):
        region = Region(families=["f"])
        put(region, b"a", ts=1)
        put(region, b"b", ts=1)
        region.delete(b"a", "f", b"q", timestamp=2)
        rows = [c.row for c in region.scan("f")]
        assert rows == [b"b"]

    def test_scan_with_prefix_filter(self):
        region = Region(families=["f"])
        for row in (b"user1-a", b"user1-b", b"user2-a"):
            put(region, row)
        rows = [c.row for c in region.scan("f", scan_filter=PrefixFilter(b"user1"))]
        assert rows == [b"user1-a", b"user1-b"]

    def test_scan_with_timestamp_filter(self):
        region = Region(families=["f"])
        put(region, b"a", ts=10)
        put(region, b"b", ts=20)
        put(region, b"c", ts=30)
        f = TimestampRangeFilter(15, 25)
        rows = [c.row for c in region.scan("f", scan_filter=f)]
        assert rows == [b"b"]

    def test_scan_clamped_to_region_range(self):
        region = Region(families=["f"], start_key=b"m", end_key=b"t")
        put(region, b"p")
        # Asking for a wider range must not escape the region.
        rows = [c.row for c in region.scan("f", b"a", b"z")]
        assert rows == [b"p"]
