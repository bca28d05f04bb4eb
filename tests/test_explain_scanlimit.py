"""Tests for explain_personalized and limited scans."""

import pytest

from repro.config import ClusterConfig
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
)
from repro.core.repositories.poi import POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.errors import QueryError
from repro.hbase import Cell, HBaseCluster, HTable, TableDescriptor
from repro.sqlstore import SqlEngine


class TestExplainPersonalized:
    @pytest.fixture()
    def qa(self):
        cluster = HBaseCluster(ClusterConfig(num_nodes=4, regions_per_table=8))
        visits = VisitsRepository(cluster, num_regions=8)
        for uid in range(1, 30):
            for ts in (10, 20, 30):
                visits.store(
                    VisitStruct(user_id=uid, poi_id=uid % 5 + 1,
                                timestamp=ts, grade=0.5, poi_name="P",
                                lat=37.0, lon=23.0)
                )
        module = QueryAnsweringModule(POIRepository(SqlEngine()), visits)
        yield module

    def test_profile_totals_match_result(self, qa):
        query = SearchQuery(friend_ids=tuple(range(1, 30)))
        profile = qa.explain_personalized(query)
        result = qa.search(query)
        assert profile["friends"] == 29
        assert profile["records_total"] == result.records_scanned == 29 * 3
        assert len(profile["regions"]) == 8
        assert profile["latency_ms"] > 0

    def test_per_region_fields(self, qa):
        profile = qa.explain_personalized(
            SearchQuery(friend_ids=tuple(range(1, 30)))
        )
        for region in profile["regions"]:
            assert set(region) == {
                "region_id", "node", "records_scanned", "results_returned",
            }
            assert region["node"] in (0, 1, 2, 3)
            assert region["results_returned"] <= region["records_scanned"]

    def test_skew_reflects_distribution(self, qa):
        profile = qa.explain_personalized(
            SearchQuery(friend_ids=tuple(range(1, 30)))
        )
        assert profile["skew"] >= 1.0
        assert profile["records_max_region"] <= profile["records_total"]

    def test_requires_personalized(self, qa):
        with pytest.raises(QueryError):
            qa.explain_personalized(SearchQuery())


class TestScanLimit:
    def _table(self):
        table = HTable(TableDescriptor(name="t", families=["f"], num_regions=4))
        for i in range(100):
            table.put(
                Cell(row=(i * 655).to_bytes(2, "big"), family="f",
                     qualifier=b"q", timestamp=1, value=b"v")
            )
        return table

    def test_limit_caps_output_in_key_order(self):
        table = self._table()
        limited = [c.row for c in table.scan("f", limit=10)]
        full = [c.row for c in table.scan("f")]
        assert limited == full[:10]

    def test_limit_larger_than_table(self):
        table = self._table()
        assert len(list(table.scan("f", limit=10_000))) == 100

    def test_limit_with_range(self):
        table = self._table()
        full = [c.row for c in table.scan("f", b"\x20", b"\xd0")]
        limited = [c.row for c in table.scan("f", b"\x20", b"\xd0", limit=5)]
        assert limited == full[:5]
