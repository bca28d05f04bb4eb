"""Ablation — the hybrid storage split (paper Section 2).

"We devise a hybrid architecture that uses HBase for batch queries that
can be efficiently executed in parallel and PostgreSQL for online
random-access queries that cannot."

This bench quantifies the split's two directions:

1. non-personalized queries on the SQL store (indexed random access)
   vs the same query forced through an HBase-style full scan;
2. personalized aggregation on HBase coprocessors vs the same
   aggregation through repeated SQL-side lookups.
"""

from __future__ import annotations

import time

import pytest

from repro.core import SearchQuery
from repro.geo import BoundingBox
from repro.sqlstore import Query

from ._report import register_table
from ._workload import friend_count, friend_sample, paper_read_path

#: A selective neighbourhood window (~600 m on a side, a few dozen POIs
#: out of 8500): the access-path comparison needs index-friendly
#: selectivity, as random-access POI lookups are exactly the workload
#: the paper gives PostgreSQL.
ATHENS = BoundingBox(37.981, 23.725, 37.987, 23.731)


def test_nonpersonalized_sql_vs_full_scan(bench_platform, benchmark):
    """Bounding-box top-k: spatial index vs scanning every POI row."""

    def run_both():
        t0 = time.perf_counter()
        for _ in range(50):
            indexed = bench_platform.poi_repository.search(
                bbox=ATHENS, sort_by="hotness", limit=10
            )
        indexed_wall = (time.perf_counter() - t0) / 50

        table = bench_platform.sql.table("pois")
        t0 = time.perf_counter()
        for _ in range(50):
            rows = [
                row
                for _rid, row in table.scan()
                if ATHENS.contains_coords(row["lat"], row["lon"])
            ]
            rows.sort(key=lambda r: r["hotness"], reverse=True)
            scanned = rows[:10]
        scan_wall = (time.perf_counter() - t0) / 50
        return indexed, indexed_wall, scanned, scan_wall

    indexed, indexed_wall, scanned, scan_wall = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    register_table(
        "Ablation: non-personalized query, SQL index vs full scan",
        ["path", "latency (ms)"],
        [
            ["SQL spatial index (paper)", "%.2f" % (indexed_wall * 1e3)],
            ["full table scan", "%.2f" % (scan_wall * 1e3)],
        ],
    )
    # Hotness ties make exact ordering schema-dependent; the top-k score
    # *multisets* must agree, and the index must be faster.
    assert sorted(p.hotness for p in indexed) == sorted(
        r["hotness"] for r in scanned
    )
    assert indexed_wall < scan_wall


def test_personalized_on_right_store(bench_platform, benchmark):
    """Personalized queries belong on the parallel store: the simulated
    coprocessor latency beats the serialized client-side path at every
    friend count."""

    def sweep():
        out = {}
        for friends in sorted({friend_count(f) for f in (500, 2000, 4000)}):
            ids = friend_sample(friends, seed=friends)
            query = SearchQuery(friend_ids=ids, sort_by="interest", limit=10)
            with paper_read_path(bench_platform):
                copro = bench_platform.query_answering.search(query)
            client = (
                bench_platform.query_answering.search_personalized_client_side(
                    query
                )
            )
            out[friends] = (copro.latency_ms, client.latency_ms)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_table(
        "Ablation: personalized query placement (simulated ms, 16 nodes)",
        ["friends", "HBase coprocessors (paper)", "single-server SQL-style"],
        [
            [friends, "%.0f" % copro, "%.0f" % client]
            for friends, (copro, client) in sorted(results.items())
        ],
    )
    for friends, (copro, client) in results.items():
        assert copro < client, friends
