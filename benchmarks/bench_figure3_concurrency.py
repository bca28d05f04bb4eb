"""Figure 3 — mean latency of concurrent personalized queries.

Paper setup: 30..50 concurrent queries, 6000 SN friends each, clusters
of 4/8/16 nodes.  Expected shape: latency rises with concurrency; at 30
queries the 16-node cluster is ~2.5x better than 4 nodes; the 16-node
curve rises the slowest.
"""

from __future__ import annotations

import os
import statistics

import pytest

from ._report import register_table
from ._workload import (
    PAPER_CLUSTERS,
    friend_count,
    friend_sample,
    paper_read_path,
    region_records_for_friends,
    simulate_query_ms,
)

CONCURRENCY_LEVELS = (30, 35, 40, 45, 50)
#: The paper's 6000; the same ~57 % of the user base on a smoke dataset.
FRIENDS_PER_QUERY = friend_count(6000)

#: Cache ablation: concurrent queries cycling this many distinct friend
#: sets, so later queries re-request partitions earlier ones scanned.
ABLATION_CONCURRENCY = 50
ABLATION_PROFILES = 8
#: Gate for the cached/uncached throughput ratio (CI smoke relaxes it).
CACHE_SPEEDUP_MIN = float(os.environ.get("REPRO_CACHE_SPEEDUP_MIN", "2.0"))


def _figure3_series(platform):
    """{concurrency: {nodes: mean_s}}.

    One 6000-friend region-work profile is captured per distinct query;
    concurrency replays N profiles through the shared-cluster scheduler.
    """
    # Distinct friend sets per concurrent query, as real users differ.
    profiles = [
        region_records_for_friends(
            platform, friend_sample(FRIENDS_PER_QUERY, seed=31 + i)
        )
        for i in range(8)
    ]
    series = {}
    for concurrency in CONCURRENCY_LEVELS:
        series[concurrency] = {}
        for nodes in PAPER_CLUSTERS:
            # Cycle the profiles to build the concurrent batch.
            from repro.cluster import ClusterSimulation, Task
            from repro.config import ClusterConfig
            from ._workload import (
                COST_PER_RECORD_US,
                MERGE_COST_PER_ITEM_US,
                REGIONS,
            )

            sim = ClusterSimulation(
                ClusterConfig(
                    num_nodes=nodes,
                    regions_per_table=REGIONS,
                    cost_per_record_us=COST_PER_RECORD_US,
                    merge_cost_per_item_us=MERGE_COST_PER_ITEM_US,
                )
            )
            all_regions = sorted(
                {r for profile in profiles for r in profile}
            )
            sim.place_regions(all_regions)
            batches = []
            for qi in range(concurrency):
                profile = profiles[qi % len(profiles)]
                batches.append(
                    [
                        Task(region_id=r, records_scanned=work[0],
                             results_returned=work[1], query_id=qi)
                        for r, work in sorted(profile.items())
                    ]
                )
            routing = sim.cost_model.routing_cost_s(FRIENDS_PER_QUERY)
            timelines = sim.run_queries(
                batches, client_setup_s=[routing] * len(batches)
            )
            series[concurrency][nodes] = statistics.mean(
                t.latency_s for t in timelines
            )
    return series


def test_figure3_concurrent_query_latency(bench_platform, benchmark):
    series = benchmark.pedantic(
        _figure3_series, args=(bench_platform,), rounds=1, iterations=1
    )

    rows = [
        [conc] + ["%.1f" % series[conc][n] for n in PAPER_CLUSTERS]
        for conc in CONCURRENCY_LEVELS
    ]
    register_table(
        "Figure 3: mean execution time (s) for concurrent queries"
        " (%d friends each)" % FRIENDS_PER_QUERY,
        ["concurrent"] + ["%d nodes" % n for n in PAPER_CLUSTERS],
        rows,
    )
    benchmark.extra_info["series"] = series

    # ---- shape assertions ----
    # (a) more concurrency never helps.
    for nodes in PAPER_CLUSTERS:
        values = [series[c][nodes] for c in CONCURRENCY_LEVELS]
        assert all(b >= a for a, b in zip(values, values[1:])), values
    # (b) bigger clusters win at every concurrency level.
    for conc in CONCURRENCY_LEVELS:
        assert series[conc][4] > series[conc][8] > series[conc][16]
    # (c) the paper's factor: at 30 queries the 16-node cluster should
    #     clearly beat 4 nodes.  The paper observed ~2.5x; our simulated
    #     scaling is closer to ideal (no web-tier/RPC saturation), so we
    #     accept up to ~5x and record the delta in EXPERIMENTS.md.
    speedup = series[30][4] / series[30][16]
    assert 2.0 <= speedup <= 5.0, speedup
    # (d) the 16-node curve grows the slowest in absolute terms.
    growth = {
        n: series[CONCURRENCY_LEVELS[-1]][n] - series[CONCURRENCY_LEVELS[0]][n]
        for n in PAPER_CLUSTERS
    }
    assert growth[16] < growth[8] < growth[4], growth


def _run_concurrent_batch(platform, queries):
    """One real fan-out batch over the shared cluster; returns the
    results plus the batch makespan (max simulated latency — queries all
    submit at t=0, so the slowest finish IS the batch wall time)."""
    results = platform.query_answering.search_personalized_batch(queries)
    makespan_ms = max(r.latency_ms for r in results)
    return results, makespan_ms


def test_figure3_cache_ablation(bench_platform, benchmark):
    """Cached vs uncached throughput at 50 concurrent 6000-friend
    queries drawn from ``ABLATION_PROFILES`` shared friend sets.

    Unlike the series benchmark above (which replays captured work
    profiles), both arms here execute the real coprocessor fan-out, so
    the cached arm's scan savings — repeat friend partitions served from
    the region scan cache — show up directly in the simulated makespan.
    The answers must be element-wise identical across the two arms.
    """
    from repro.hbase import RegionScanCache

    samples = [
        friend_sample(FRIENDS_PER_QUERY, seed=31 + i)
        for i in range(ABLATION_PROFILES)
    ]
    from repro.core.modules.query_answering import SearchQuery

    queries = [
        SearchQuery(
            friend_ids=tuple(samples[qi % ABLATION_PROFILES]),
            sort_by="interest",
        )
        for qi in range(ABLATION_CONCURRENCY)
    ]
    cluster = bench_platform.hbase

    def ablation():
        # Both arms run the paper's read path (drained merge, uncached
        # baseline arm), so the fresh cache is their only difference;
        # the shared platform fixture is left exactly as found.
        with paper_read_path(bench_platform):
            base_results, base_makespan = _run_concurrent_batch(
                bench_platform, queries
            )
            cache = RegionScanCache()
            cluster.scan_cache = cache
            cached_results, cached_makespan = _run_concurrent_batch(
                bench_platform, queries
            )
            stats = cache.stats()
        return {
            "base_results": base_results,
            "cached_results": cached_results,
            "base_makespan_ms": base_makespan,
            "cached_makespan_ms": cached_makespan,
            "cache_stats": stats,
        }

    out = benchmark.pedantic(ablation, rounds=1, iterations=1)

    speedup = out["base_makespan_ms"] / out["cached_makespan_ms"]
    base_records = sum(r.records_scanned for r in out["base_results"])
    cached_records = sum(r.records_scanned for r in out["cached_results"])
    hit_rate = out["cache_stats"]["hit_rate"]
    register_table(
        "Figure 3 ablation: region scan cache"
        " (%d concurrent queries x %d friends, %d shared friend sets)"
        % (ABLATION_CONCURRENCY, FRIENDS_PER_QUERY, ABLATION_PROFILES),
        ["mode", "makespan (ms)", "records scanned", "hit rate"],
        [
            ["uncached", "%.1f" % out["base_makespan_ms"],
             str(base_records), "-"],
            ["cached", "%.1f" % out["cached_makespan_ms"],
             str(cached_records), "%.3f" % hit_rate],
            ["speedup", "%.2fx" % speedup, "", ""],
        ],
    )
    benchmark.extra_info["cache_speedup"] = speedup
    benchmark.extra_info["cache_hit_rate"] = hit_rate

    # ---- correctness: byte-identical answers across the two arms ----
    for base, cached in zip(out["base_results"], out["cached_results"]):
        assert [
            (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
            for p in base.pois
        ] == [
            (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
            for p in cached.pois
        ]
    # ---- effectiveness ----
    assert cached_records < base_records
    assert hit_rate > 0.5, hit_rate  # shared friend sets must mostly hit
    assert speedup >= CACHE_SPEEDUP_MIN, speedup
