"""Tests for advanced HBase features: versions, TTL, checkAndPut, batch."""

import pytest

from repro.errors import StorageError
from repro.hbase import Cell, HTable, Region, TableDescriptor


def cell(row, ts=1, value=b"v", qualifier=b"q"):
    return Cell(row=row, family="f", qualifier=qualifier, timestamp=ts,
                value=value)


class TestGetVersions:
    def test_newest_first_capped(self):
        region = Region(families=["f"])
        for ts in (1, 2, 3, 4, 5):
            region.put(cell(b"r", ts=ts, value=b"v%d" % ts))
        versions = region.get_versions(b"r", "f", b"q", max_versions=3)
        assert [c.timestamp for c in versions] == [5, 4, 3]
        assert versions[0].value == b"v5"

    def test_time_range(self):
        region = Region(families=["f"])
        for ts in (10, 20, 30, 40):
            region.put(cell(b"r", ts=ts))
        versions = region.get_versions(
            b"r", "f", b"q", max_versions=10, min_ts=15, max_ts=40
        )
        assert [c.timestamp for c in versions] == [30, 20]

    def test_tombstone_hides_older_versions(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=1))
        region.put(cell(b"r", ts=2))
        region.delete(b"r", "f", b"q", timestamp=3)
        region.put(cell(b"r", ts=4, value=b"reborn"))
        versions = region.get_versions(b"r", "f", b"q", max_versions=10)
        assert [c.timestamp for c in versions] == [4]

    def test_versions_survive_flush(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=1, value=b"old"))
        region.flush()
        region.put(cell(b"r", ts=2, value=b"new"))
        versions = region.get_versions(b"r", "f", b"q", max_versions=5)
        assert [c.value for c in versions] == [b"new", b"old"]

    def test_same_timestamp_rewrite_collapses(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=5, value=b"first"))
        region.flush()
        region.put(cell(b"r", ts=5, value=b"second"))
        versions = region.get_versions(b"r", "f", b"q", max_versions=5)
        assert len(versions) == 1
        assert versions[0].value == b"second"

    def test_invalid_max_versions(self):
        region = Region(families=["f"])
        with pytest.raises(StorageError):
            region.get_versions(b"r", "f", b"q", max_versions=0)

    def test_routed_through_table(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=4))
        for ts in (1, 2):
            table.put(cell(b"\x10row", ts=ts, value=b"v%d" % ts))
        versions = table.get_versions(b"\x10row", "f", b"q")
        assert [c.value for c in versions] == [b"v2", b"v1"]


class TestTTL:
    def test_expired_cells_invisible(self):
        region = Region(families=["f"])
        region.put(cell(b"old", ts=100))
        region.put(cell(b"new", ts=200))
        region.set_ttl_cutoff("f", 150)
        assert region.get(b"old", "f", b"q") is None
        assert region.get(b"new", "f", b"q") == b"v"

    def test_scan_skips_expired(self):
        region = Region(families=["f"])
        region.put(cell(b"a", ts=100))
        region.put(cell(b"b", ts=200))
        region.set_ttl_cutoff("f", 150)
        assert [c.row for c in region.scan("f")] == [b"b"]

    def test_compaction_reclaims_expired(self):
        region = Region(families=["f"])
        region.put(cell(b"old", ts=100))
        region.put(cell(b"new", ts=200))
        region.set_ttl_cutoff("f", 150)
        region.compact()
        assert region.approx_rows("f") == 1

    def test_cutoff_never_regresses(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=100))
        region.set_ttl_cutoff("f", 150)
        region.set_ttl_cutoff("f", 50)  # lower cutoff ignored
        assert region.get(b"r", "f", b"q") is None

    def test_per_family_isolation(self):
        region = Region(families=["f", "g"])
        region.put(cell(b"r", ts=100))
        region.put(Cell(row=b"r", family="g", qualifier=b"q",
                        timestamp=100, value=b"g"))
        region.set_ttl_cutoff("f", 150)
        assert region.get(b"r", "f", b"q") is None
        assert region.get(b"r", "g", b"q") == b"g"

    def test_table_wide_cutoff(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=4))
        table.put(cell(b"\x01a", ts=100))
        table.put(cell(b"\xf0b", ts=200))
        table.set_ttl_cutoff("f", 150)
        assert [c.row for c in table.scan("f")] == [b"\xf0b"]


class TestCheckAndPut:
    def test_put_when_absent(self):
        region = Region(families=["f"])
        ok = region.check_and_put(b"r", "f", b"q", None, cell(b"r", ts=1))
        assert ok
        assert region.get(b"r", "f", b"q") == b"v"

    def test_rejected_when_present_but_expected_absent(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=1))
        ok = region.check_and_put(
            b"r", "f", b"q", None, cell(b"r", ts=2, value=b"clobber")
        )
        assert not ok
        assert region.get(b"r", "f", b"q") == b"v"

    def test_compare_and_swap(self):
        region = Region(families=["f"])
        region.put(cell(b"r", ts=1, value=b"a"))
        assert region.check_and_put(
            b"r", "f", b"q", b"a", cell(b"r", ts=2, value=b"b")
        )
        assert not region.check_and_put(
            b"r", "f", b"q", b"a", cell(b"r", ts=3, value=b"c")
        )
        assert region.get(b"r", "f", b"q") == b"b"

    def test_routed_through_table(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=2))
        assert table.check_and_put(b"row", "f", b"q", None, cell(b"row"))
        assert not table.check_and_put(b"row", "f", b"q", None, cell(b"row", ts=2))


class TestMutateBatch:
    def test_batch_applies_all(self):
        region = Region(families=["f"])
        region.put_batch([cell(b"a"), cell(b"b"), cell(b"c")])
        assert region.write_count == 3
        assert region.get(b"b", "f", b"q") == b"v"

    def test_validation_precedes_any_write(self):
        region = Region(families=["f"], start_key=b"m", end_key=b"t")
        with pytest.raises(StorageError):
            region.put_batch([cell(b"p"), cell(b"zzz")])  # zzz out of range
        # Nothing applied, not even the valid cell.
        assert region.get(b"p", "f", b"q") is None

    def test_cross_region_batch_through_table(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=4))
        cells = [cell(bytes([b]) + b"-row") for b in (0x01, 0x41, 0x81, 0xC1)]
        for c in cells:
            table.region_for_row(c.row).put_batch([c])
        assert [r.write_count for r in table.regions] == [1, 1, 1, 1]
        for c in cells:
            assert table.get(c.row, "f", b"q") == b"v"
