"""Tests for HTable routing/splits and the cluster client + coprocessors."""

import pytest

from repro.config import ClusterConfig
from repro.errors import StorageError, TableExistsError, TableNotFoundError
from repro.hbase import (
    Cell,
    Coprocessor,
    HBaseCluster,
    HTable,
    TableDescriptor,
    encode_int,
)


def cell(row, value=b"v", ts=1):
    return Cell(row=row, family="f", qualifier=b"q", timestamp=ts, value=value)


def _exec_every_region(cluster, table, coprocessor):
    """One ``None`` request routed to every region of ``table``."""
    routed = {region: None for region in table.regions}
    return cluster.coprocessor_exec_routed(
        table.name, coprocessor, [routed]
    )[0]


class TestHTable:
    def test_pre_split_region_count(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=8))
        assert len(table.regions) == 8

    def test_explicit_split_points(self):
        table = HTable(
            TableDescriptor(
                name="t", families=["f"], split_points=[b"h", b"p"]
            )
        )
        assert len(table.regions) == 3
        assert table.region_for_row(b"a").end_key == b"h"
        assert table.region_for_row(b"m").start_key == b"h"
        assert table.region_for_row(b"z").start_key == b"p"

    def test_unsorted_split_points_rejected(self):
        with pytest.raises(StorageError):
            HTable(
                TableDescriptor(name="t", families=["f"], split_points=[b"p", b"h"])
            ).region_for_row(b"a")

    def test_routing_covers_whole_keyspace(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=16))
        for i in range(0, 1 << 16, 997):
            row = encode_int(i, 2) + b"suffix"
            region = table.region_for_row(row)
            assert region.contains_row(row)

    def test_put_get_across_regions(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=4))
        for i in range(200):
            table.put(cell(encode_int(i * 327, 2) + b"-k", value=b"v%d" % i))
        for i in range(200):
            got = table.get(encode_int(i * 327, 2) + b"-k", "f", b"q")
            assert got == b"v%d" % i

    def test_multi_region_scan_in_key_order(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=4))
        rows = [encode_int(i, 2) for i in range(0, 1 << 16, 1111)]
        for row in reversed(rows):
            table.put(cell(row))
        scanned = [c.row for c in table.scan("f")]
        assert scanned == sorted(rows)

    def test_automatic_split_on_row_limit(self):
        table = HTable(
            TableDescriptor(
                name="t", families=["f"], num_regions=1, max_rows_per_region=50
            )
        )
        for i in range(120):
            table.put(cell(b"row%04d" % i))
        assert len(table.regions) >= 2
        # Everything still readable after the split.
        for i in range(120):
            assert table.get(b"row%04d" % i, "f", b"q") == b"v"

    def test_manual_split_preserves_data(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=1))
        for i in range(40):
            table.put(cell(b"k%02d" % i))
        table.split_region(table.regions[0])
        assert len(table.regions) == 2
        assert [c.row for c in table.scan("f")] == [b"k%02d" % i for i in range(40)]

    def test_split_single_row_is_noop(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=1))
        table.put(cell(b"only"))
        table.split_region(table.regions[0])
        assert len(table.regions) == 1


class TestHBaseCluster:
    def test_create_and_drop(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=2))
        cluster.create_table(TableDescriptor(name="a", families=["f"]))
        with pytest.raises(TableExistsError):
            cluster.create_table(TableDescriptor(name="a", families=["f"]))
        assert cluster.table_names() == ["a"]
        cluster.drop_table("a")
        with pytest.raises(TableNotFoundError):
            cluster.table("a")
        with pytest.raises(TableNotFoundError):
            cluster.drop_table("a")

    def test_coprocessor_exec_merges_all_regions(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=4))
        table = cluster.create_table(
            TableDescriptor(name="t", families=["f"], num_regions=8)
        )
        for i in range(256):
            table.put(cell(encode_int(i * 256, 2), value=encode_int(i)))

        class CountCoprocessor(Coprocessor):
            def run(self, context, request):
                return [sum(1 for _ in context.scan("f"))]

            def merge(self, partials):
                return sum(p[0] for p in partials if p)

        call = _exec_every_region(cluster, table, CountCoprocessor())
        assert call.result == 256
        assert call.records_scanned == 256
        assert call.latency_ms > 0

    def test_concurrent_coprocessor_calls_share_cluster(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=2))
        table = cluster.create_table(
            TableDescriptor(name="t", families=["f"], num_regions=4)
        )
        for i in range(400):
            table.put(cell(encode_int(i * 163, 2), value=b"x"))

        class ScanAll(Coprocessor):
            def run(self, context, request):
                return [c.value for c in context.scan("f")]

        single = _exec_every_region(cluster, table, ScanAll())
        many = cluster.coprocessor_exec_routed(
            "t", ScanAll(), [{region: None for region in table.regions}] * 8
        )
        assert all(len(c.result) == 400 for c in many)
        mean = sum(c.latency_ms for c in many) / len(many)
        assert mean > single.latency_ms

    def test_per_region_records_reported(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=2))
        table = cluster.create_table(
            TableDescriptor(name="t", families=["f"], num_regions=4)
        )
        table.put(cell(encode_int(0, 2)))

        class ScanAll(Coprocessor):
            def run(self, context, request):
                return [c.row for c in context.scan("f")]

        call = _exec_every_region(cluster, table, ScanAll())
        assert sum(call.per_region_records.values()) == 1
        assert len(call.per_region_records) == 4

        # Regions run in region-id order: with a row in every region,
        # the per-region accounts and the concatenated partials both
        # line up with ascending region id (= ascending key range).
        rows = [encode_int(i * 16384 + 7, 2) for i in range(4)]
        for row in rows[1:]:
            table.put(cell(row))
        call = _exec_every_region(cluster, table, ScanAll())
        region_ids = sorted(table.region_ids())
        assert list(call.per_region_records) == region_ids
        assert list(call.per_region_results) == region_ids
        assert list(call.per_region_records.values()) == [1, 1, 1, 1]
        assert call.result == [encode_int(0, 2)] + rows[1:]
