"""Ablation — coprocessor (region-local) aggregation vs client-side merge.

Paper Section 2.2 claims the coprocessor design wins because each region
filters/aggregates/sorts locally and only partial top-lists cross the
wire, and that more regions mean more intra-query parallelism.  This
bench measures both claims.
"""

from __future__ import annotations

import pytest

from repro.core import SearchQuery

from ._report import register_table
from ._workload import (
    NUM_USERS,
    friend_sample,
    paper_read_path,
    region_records_for_friends,
    simulate_query_ms,
)

#: Truncated when REPRO_BENCH_USERS shrinks the dataset for smoke runs.
FRIENDS = min(4000, NUM_USERS // 2)


def test_coprocessor_vs_client_side(bench_platform, benchmark):
    """The same personalized query through both execution strategies."""
    ids = friend_sample(FRIENDS, seed=55)
    query = SearchQuery(friend_ids=ids, sort_by="interest", limit=10)

    def run_both():
        with paper_read_path(bench_platform):
            copro = bench_platform.query_answering.search(query)
        client = bench_platform.query_answering.search_personalized_client_side(
            query
        )
        return copro, client

    copro, client = benchmark.pedantic(run_both, rounds=1, iterations=1)

    register_table(
        "Ablation: coprocessor vs client-side aggregation"
        " (%d friends, 16 nodes)" % FRIENDS,
        ["strategy", "latency (ms)", "records scanned"],
        [
            ["coprocessor (paper)", "%.0f" % copro.latency_ms,
             copro.records_scanned],
            ["client-side merge", "%.0f" % client.latency_ms,
             client.records_scanned],
        ],
    )

    # Same answer, very different cost.
    assert [p.poi_id for p in copro.pois] == [p.poi_id for p in client.pois]
    assert copro.latency_ms < client.latency_ms / 3


def test_more_regions_more_parallelism(bench_platform, benchmark):
    """Paper: "Increasing the regions number ... achieves higher degree
    of parallelism within a single query."

    The captured per-region work of a real query is re-bucketed into
    fewer regions and replayed: fewer regions = fewer concurrently
    runnable tasks per query.
    """
    ids = friend_sample(FRIENDS, seed=56)

    def sweep():
        work = region_records_for_friends(bench_platform, ids)
        out = {}
        for regions in (4, 8, 16, 32):
            # Coalesce the 32 real regions into `regions` buckets.
            buckets = {}
            for i, (region, (records, results)) in enumerate(
                sorted(work.items())
            ):
                prev = buckets.get(i % regions, (0, 0))
                buckets[i % regions] = (
                    prev[0] + records, prev[1] + results,
                )
            out[regions] = simulate_query_ms(buckets, num_nodes=16)[0]
        return out

    latencies = benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_table(
        "Ablation: regions per table vs single-query latency (16 nodes)",
        ["regions", "latency (ms)"],
        [[r, "%.0f" % ms] for r, ms in sorted(latencies.items())],
    )
    assert latencies[32] < latencies[8] < latencies[4]
