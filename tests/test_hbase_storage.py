"""Tests for cells, memstore and store files (the LSM write path)."""

import pytest

from repro.errors import StorageError, ValidationError
from repro.hbase import Cell, MemStore, StoreFile
from repro.hbase.hfile import _BloomFilter, merge_sorted_runs


def cell(row, ts=1, value=b"v", qualifier=b"q", delete=False):
    return Cell(
        row=row,
        family="f",
        qualifier=qualifier,
        timestamp=ts,
        value=value,
        is_delete=delete,
    )


class TestCell:
    def test_validation(self):
        with pytest.raises(ValidationError):
            cell(b"")  # empty row
        with pytest.raises(ValidationError):
            Cell(row=b"r", family="f", qualifier=b"q", timestamp=-1)
        with pytest.raises(ValidationError):
            Cell(row="str", family="f", qualifier=b"q", timestamp=0)

    def test_sort_newest_version_first(self):
        old = cell(b"r", ts=1)
        new = cell(b"r", ts=2)
        assert new < old  # newest first within the same coordinates

    def test_sort_by_row_then_qualifier(self):
        assert cell(b"a", qualifier=b"z") < cell(b"b", qualifier=b"a")
        assert cell(b"a", qualifier=b"a") < cell(b"a", qualifier=b"b")


class TestMemStore:
    def test_put_and_scan_sorted(self):
        store = MemStore()
        for row in (b"c", b"a", b"b"):
            store.put(cell(row))
        assert [c.row for c in store.scan()] == [b"a", b"b", b"c"]

    def test_scan_range(self):
        store = MemStore()
        for i in range(10):
            store.put(cell(b"row%02d" % i))
        rows = [c.row for c in store.scan(b"row03", b"row07")]
        assert rows == [b"row03", b"row04", b"row05", b"row06"]

    def test_same_version_put_replaces(self):
        store = MemStore()
        store.put(cell(b"r", ts=5, value=b"old"))
        store.put(cell(b"r", ts=5, value=b"new"))
        cells = list(store.scan())
        assert len(cells) == 1
        assert cells[0].value == b"new"

    def test_flush_threshold(self):
        store = MemStore(flush_threshold_bytes=100)
        assert not store.should_flush
        store.put(cell(b"r" * 10, value=b"v" * 200))
        assert store.should_flush

    def test_clear(self):
        store = MemStore()
        store.put(cell(b"r"))
        store.clear()
        assert len(store) == 0
        assert store.size_bytes == 0


class TestStoreFile:
    def test_rejects_unsorted_input(self):
        with pytest.raises(StorageError):
            StoreFile([cell(b"b"), cell(b"a")])

    def test_bloom_filter_and_range_pruning(self):
        sf = StoreFile([cell(b"row%03d" % i) for i in range(100)])
        assert sf.may_contain_row(b"row050")
        assert not sf.may_contain_row(b"zzz")  # beyond last_row
        assert not sf.may_contain_row(b"aaa")  # before first_row

    def test_bloom_filter_is_built_by_the_first_point_read(self):
        rows = [b"row%03d" % i for i in range(0, 300, 3)]
        sf = StoreFile([cell(r) for r in rows])
        assert sf._bloom is None
        assert list(sf.scan(b"row000", b"row100"))  # scans never build it
        assert sf._bloom is None
        assert sf.may_contain_row(b"row150")
        eager = _BloomFilter(len(rows))
        eager.add_all(rows)
        assert sf._bloom._bits == eager._bits

    def test_bloom_of_a_torn_file_covers_the_rows_as_written(self):
        rows = [b"row%03d" % i for i in range(50)]
        sf = StoreFile([cell(r) for r in rows])
        sf.tear_tail(drop=5)
        eager = _BloomFilter(len(rows))
        eager.add_all(rows)
        assert sf._bloom._bits == eager._bits

    def test_bloom_no_false_negatives(self):
        rows = [b"key-%d" % i for i in range(0, 1000, 7)]
        sf = StoreFile([cell(r) for r in sorted(rows)])
        for r in rows:
            assert sf.may_contain_row(r)

    def test_scan_range(self):
        sf = StoreFile([cell(b"row%02d" % i) for i in range(20)])
        got = [c.row for c in sf.scan(b"row05", b"row08")]
        assert got == [b"row05", b"row06", b"row07"]

    def test_overlaps_range(self):
        sf = StoreFile([cell(b"m")])
        assert sf.overlaps_range(b"a", b"z")
        assert not sf.overlaps_range(b"n", b"z")
        assert not sf.overlaps_range(b"a", b"m")  # stop is exclusive

    def test_empty_store_file(self):
        sf = StoreFile([])
        assert len(sf) == 0
        assert not sf.may_contain_row(b"x")
        assert list(sf.scan()) == []


class TestMergeSortedRuns:
    def test_merges_in_order(self):
        run1 = [cell(b"a"), cell(b"c")]
        run2 = [cell(b"b"), cell(b"d")]
        merged = merge_sorted_runs([run1, run2])
        assert [c.row for c in merged] == [b"a", b"b", b"c", b"d"]

    def test_later_run_wins_exact_ties(self):
        older = [cell(b"r", ts=5, value=b"old")]
        newer = [cell(b"r", ts=5, value=b"new")]
        merged = merge_sorted_runs([older, newer])
        assert len(merged) == 1
        assert merged[0].value == b"new"

    def test_versions_ordered_newest_first(self):
        run = [cell(b"r", ts=3), cell(b"r", ts=1)]
        run2 = [cell(b"r", ts=2)]
        merged = merge_sorted_runs([run, run2])
        assert [c.timestamp for c in merged] == [3, 2, 1]

    def test_empty_runs(self):
        assert merge_sorted_runs([]) == []
        assert merge_sorted_runs([[], []]) == []
