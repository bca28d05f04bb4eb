"""Ablation — coprocessor (region-local) aggregation vs client-side merge.

Paper Section 2.2 claims the coprocessor design wins because each region
filters/aggregates/sorts locally and only partial top-lists cross the
wire, and that more regions mean more intra-query parallelism.  This
bench measures both claims.
"""

from __future__ import annotations

import time

import pytest

from repro.core import SearchQuery
from repro.core.modules.query_answering import _VisitScanRequest

from ._report import register_table
from ._workload import (
    NUM_USERS,
    friend_sample,
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


def test_routed_vs_broadcast_fanout(bench_platform, benchmark):
    """Routed fan-out (client partitions friends by salted key prefix)
    vs the broadcast fan-out (every region gets the full friend list and
    probes ownership per friend).  Same answer; routing removes the
    O(friends x regions) probing and never invokes friendless regions.
    """
    qa = bench_platform.query_answering
    cluster = bench_platform.hbase
    table_name = bench_platform.visits_repository.table.name
    ids = friend_sample(FRIENDS, seed=57)
    query = SearchQuery(friend_ids=ids, sort_by="interest", limit=10)
    broadcast_request = _VisitScanRequest(
        friend_ids=ids, bbox=None, keywords=(), since=None, until=None,
        routed=False,
    )

    def run_pair():
        # Both sides time route/probe + fan-out + client merge, so the
        # comparison is end to end and symmetric.
        t0 = time.perf_counter()
        routed = qa.search(query)
        routed_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        call = cluster.coprocessor_exec(
            table_name, qa._coprocessor, broadcast_request
        )
        broadcast = qa.merge_and_rank(query, call)
        broadcast_s = time.perf_counter() - t0
        return routed, routed_s, broadcast, broadcast_s

    def run_rounds(rounds=3):
        # Untimed warmup: the first fan-out in a fresh process runs on
        # cold code and data caches, which would otherwise be charged
        # to whichever strategy happens to run first.  Best-of-N wall
        # clocks keep the comparison out of scheduler noise.
        run_pair()
        best_r = best_b = float("inf")
        for _ in range(rounds):
            routed, routed_s, broadcast, broadcast_s = run_pair()
            best_r = min(best_r, routed_s)
            best_b = min(best_b, broadcast_s)
        return routed, best_r, broadcast, best_b

    routed, routed_s, broadcast, broadcast_s = benchmark.pedantic(
        run_rounds, rounds=1, iterations=1
    )

    # A small friend list is where pruning bites: most regions own none
    # of the queried friends and are never invoked at all.
    small_query = SearchQuery(friend_ids=friend_sample(8, seed=58),
                              sort_by="interest", limit=10)
    small_routed = qa.search(small_query)
    small_broadcast = qa.merge_and_rank(
        small_query,
        cluster.coprocessor_exec(
            table_name, qa._coprocessor,
            _VisitScanRequest(
                friend_ids=small_query.friend_ids, bbox=None, keywords=(),
                since=None, until=None, routed=False,
            ),
        ),
    )

    register_table(
        "Ablation: routed vs broadcast coprocessor fan-out (16 nodes)",
        ["fan-out", "friends", "wall-clock (s)", "simulated (ms)",
         "regions invoked", "regions pruned"],
        [
            ["routed (this work)", FRIENDS, "%.2f" % routed_s,
             "%.0f" % routed.latency_ms, routed.regions_used,
             routed.regions_pruned],
            ["broadcast (seed)", FRIENDS, "%.2f" % broadcast_s,
             "%.0f" % broadcast.latency_ms, broadcast.regions_used,
             broadcast.regions_pruned],
            ["routed (this work)", 8, "-",
             "%.0f" % small_routed.latency_ms, small_routed.regions_used,
             small_routed.regions_pruned],
            ["broadcast (seed)", 8, "-",
             "%.0f" % small_broadcast.latency_ms,
             small_broadcast.regions_used, small_broadcast.regions_pruned],
        ],
    )

    # Identical ranked answer — routing is a pure execution change.
    assert [p.poi_id for p in routed.pois] == [p.poi_id for p in broadcast.pois]
    for a, b in zip(routed.pois, broadcast.pois):
        assert abs(a.score - b.score) < 1e-9
    assert [p.poi_id for p in small_routed.pois] == [
        p.poi_id for p in small_broadcast.pois
    ]
    # Broadcast touches every region; routing reports its pruning even
    # when a 4000-friend query happens to hit all 32 regions.
    assert broadcast.regions_pruned == 0
    assert routed.regions_used + routed.regions_pruned == 32
    # The structural win: an 8-friend query invokes at most 8 regions
    # routed, but all 32 broadcast.
    assert small_routed.regions_used <= 8
    assert small_routed.regions_pruned >= 24
    assert small_broadcast.regions_used == 32
    # Routing removes the O(friends x regions) ownership probing, so it
    # must not lose on real wall-clock (a noise allowance keeps the
    # assertion robust on loaded CI machines; the structural assertions
    # above are the deterministic part).
    if FRIENDS >= 2000:
        assert routed_s <= broadcast_s * 1.1


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
