"""Top-k early termination — the threshold algorithm must pay for itself.

The pruned fan-out (every request's default) ships score-sorted
partial streams and cuts attribute decoding off once the running k-th
score proves the remainder of every region irrelevant.  This bench is
the acceptance gate for that machinery at paper scale: one personalized
query over ``REPRO_BENCH_TOPK_FRIENDS`` (default 6000) friends at
k = 10, both scoring modes, three configurations —

- **exhaustive**  (a drained request, ``topk_batch=0`` — the
  byte-identity baseline),
- **top-k cold**  (no scan cache: pruning is the only saving),
- **top-k warm**  (scan cache opened and filled by top-k queries
  themselves: nothing is scanned, and nothing is decoded — the cold-cache
  queries left the winners in the POI attribute table).

A second, **filtered** arm (bbox + keyword over 2000 friends) gates the
shared POI attribute table: the first query on an empty table parses
each POI its friends visited once for the whole cluster (the region
filter tests every aggregated POI's row; not once per region), and
every later query parses nothing.

Gates (env-overridable for CI smoke):

- results byte-identical across all three configurations,
- ``cells_decoded`` <= k exhaustive and cold (both merges decode the
  winners only), and 0 warm; filtered: cold ``cells_decoded`` <=
  distinct POIs in the table, warm ``== 0``,
- median wall clock improved by >= ``REPRO_TOPK_SPEEDUP_MIN`` (default
  1.0, i.e. "not slower"; CI smoke sets 0.0 because the shrunk
  workload's absolute times are noise-dominated).

Numbers land in ``benchmarks/results/BENCH_topk.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.core import SearchQuery
from repro.geo import BoundingBox
from repro.hbase import RegionScanCache

from ._report import RESULTS_DIR, register_table
from ._workload import NUM_USERS, drain, friend_sample

FRIENDS = min(
    int(os.environ.get("REPRO_BENCH_TOPK_FRIENDS", 6000)), NUM_USERS - 1
)
FILTERED_FRIENDS = min(2000, NUM_USERS - 1)
K = int(os.environ.get("REPRO_BENCH_TOPK_K", 10))
REPETITIONS = max(3, int(os.environ.get("REPRO_BENCH_REPETITIONS", 5)))
SPEEDUP_MIN = float(os.environ.get("REPRO_TOPK_SPEEDUP_MIN", 1.0))

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_topk.json")


def _record_bench(section: str, payload: dict) -> None:
    """Merge one bench's numbers into ``BENCH_topk.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            data = json.load(f)
    data[section] = payload
    with open(BENCH_JSON, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _fingerprint(result):
    """Bit-exact result identity: the byte-identity contract."""
    return [
        (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
        for p in result.pois
    ]


def _measure(qa, query):
    """Median wall clock over REPETITIONS plus the last result."""
    qa.search(query)  # warm (code caches, page cache)
    samples = []
    result = None
    for _ in range(REPETITIONS):
        t0 = time.perf_counter()
        result = qa.search(query)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples), result


def test_topk_vs_exhaustive(bench_platform, benchmark):
    qa = bench_platform.query_answering
    cluster = bench_platform.hbase
    saved_cache = cluster.scan_cache

    def run():
        rows, payload = [], {}
        try:
            for sort_by in ("interest", "hotness"):
                query = SearchQuery(
                    friend_ids=friend_sample(FRIENDS, seed=4242),
                    sort_by=sort_by,
                    limit=K,
                )

                drain(qa)
                cluster.scan_cache = None
                ex_ms, ex = _measure(qa, query)

                drain(qa, on=False)
                cold_ms, cold = _measure(qa, query)

                # Warm path: the first pruned query opens the regions'
                # cache generations, _measure's warm-up fills them, and
                # every timed repetition answers off cached partials.
                # Keys are per (region, friend, window): capacity must
                # cover the friend set, not the region count.
                cache = RegionScanCache(max_entries=max(65536, 4 * FRIENDS))
                cluster.scan_cache = cache
                qa.search(query)
                warm_ms, warm = _measure(qa, query)
                assert warm.cache_misses == 0 and warm.records_scanned == 0
                cluster.scan_cache = None

                # Byte-identity across all three configurations.
                assert _fingerprint(cold) == _fingerprint(ex)
                assert _fingerprint(warm) == _fingerprint(ex)
                assert ex.cells_avoided == 0
                assert cold.cells_avoided > 0

                # Both merges decode the winners only.
                assert ex.cells_decoded <= K and cold.cells_decoded <= K, (
                    "decoded more than k=%d cells (%d friends):"
                    " exhaustive=%d topk=%d"
                    % (K, FRIENDS, ex.cells_decoded, cold.cells_decoded)
                )
                assert warm.cells_decoded == 0, (
                    "warm-cache top-k decoded %d cells; the cold-cache"
                    " queries already parsed the winners"
                    % warm.cells_decoded
                )
                if SPEEDUP_MIN > 0:
                    assert ex_ms >= SPEEDUP_MIN * cold_ms, (
                        "top-k wall clock %.2fms not %.2fx faster than"
                        " exhaustive %.2fms" % (cold_ms, SPEEDUP_MIN, ex_ms)
                    )

                rows.append([
                    sort_by,
                    ex.cells_decoded, cold.cells_decoded, warm.cells_decoded,
                    cold.regions_pruned_early,
                    "%.2f" % ex_ms, "%.2f" % cold_ms, "%.2f" % warm_ms,
                ])
                payload[sort_by] = {
                    "friends": FRIENDS,
                    "k": K,
                    "exhaustive": {
                        "wall_ms": ex_ms,
                        "cells_decoded": ex.cells_decoded,
                        "latency_ms_sim": ex.latency_ms,
                    },
                    "topk_cold": {
                        "wall_ms": cold_ms,
                        "cells_decoded": cold.cells_decoded,
                        "cells_avoided": cold.cells_avoided,
                        "regions_pruned_early": cold.regions_pruned_early,
                        "latency_ms_sim": cold.latency_ms,
                    },
                    "topk_warm_cache": {
                        "wall_ms": warm_ms,
                        "cells_decoded": warm.cells_decoded,
                        "latency_ms_sim": warm.latency_ms,
                    },
                    "byte_identical": True,
                }
        finally:
            drain(qa, on=False)
            cluster.scan_cache = saved_cache
        return rows, payload

    rows, payload = benchmark.pedantic(run, rounds=1, iterations=1)

    register_table(
        "Top-k early termination: %d friends, k=%d"
        " (median of %d reps)" % (FRIENDS, K, REPETITIONS),
        ["sort", "decoded (exh)", "decoded (topk)", "decoded (warm)",
         "pruned regions", "exh ms", "topk ms", "warm ms"],
        rows,
    )
    _record_bench("topk_vs_exhaustive", payload)
    benchmark.extra_info["topk"] = payload


def test_topk_filtered_decodes_once_per_poi(bench_platform, benchmark):
    """Filtered top-k: the region filter needs the attribute row of
    every aggregated POI, and the cluster's one POI attribute table
    makes that one parse per POI — ever — instead of one per region per
    query."""
    qa = bench_platform.query_answering
    cluster = bench_platform.hbase
    saved_cache = cluster.scan_cache
    athens = BoundingBox(37.7838, 23.5275, 38.1838, 23.9275)

    def run():
        rows, payload = [], {}
        try:
            for sort_by in ("interest", "hotness"):
                query = SearchQuery(
                    friend_ids=friend_sample(FILTERED_FRIENDS, seed=2424),
                    sort_by=sort_by,
                    limit=K,
                    bbox=athens,
                    keywords=("coffee",),
                )
                cluster.scan_cache = None
                drain(qa)
                ex = qa.search(query)
                drain(qa, on=False)
                off_ms, off = _measure(qa, query)

                cache = RegionScanCache(
                    max_entries=max(65536, 4 * FILTERED_FRIENDS)
                )
                cluster.scan_cache = cache
                cold = qa.search(query)  # empty table, opens the regions
                examined = len(cache.poi_attrs)
                warm_ms, warm = _measure(qa, query)
                cluster.scan_cache = None

                assert _fingerprint(off) == _fingerprint(ex)
                assert _fingerprint(cold) == _fingerprint(ex)
                assert _fingerprint(warm) == _fingerprint(ex)
                assert warm.cache_misses == 0 and warm.records_scanned == 0
                # Every parse put a distinct POI into the empty table.
                assert 0 < cold.cells_decoded <= examined, (
                    "cold filtered top-k decoded %d cells for %d distinct"
                    " POIs examined" % (cold.cells_decoded, examined)
                )
                assert warm.cells_decoded == 0, (
                    "warm filtered top-k decoded %d cells; the table"
                    " already holds them" % warm.cells_decoded
                )

                rows.append([
                    sort_by, ex.cells_decoded, off.cells_decoded,
                    cold.cells_decoded, warm.cells_decoded,
                    "%.2f" % off_ms, "%.2f" % warm_ms,
                ])
                payload[sort_by] = {
                    "friends": FILTERED_FRIENDS,
                    "k": K,
                    "exhaustive_cells_decoded": ex.cells_decoded,
                    "topk_cache_off": {
                        "wall_ms": off_ms,
                        "cells_decoded": off.cells_decoded,
                    },
                    "topk_cold_table": {
                        "cells_decoded": cold.cells_decoded,
                        "distinct_pois_examined": examined,
                    },
                    "topk_warm": {
                        "wall_ms": warm_ms,
                        "cells_decoded": warm.cells_decoded,
                    },
                    "byte_identical": True,
                }
        finally:
            drain(qa, on=False)
            cluster.scan_cache = saved_cache
        return rows, payload

    rows, payload = benchmark.pedantic(run, rounds=1, iterations=1)

    register_table(
        "Filtered top-k (bbox + keyword): %d friends, k=%d"
        % (FILTERED_FRIENDS, K),
        ["sort", "decoded (exh)", "decoded (topk, cache off)",
         "decoded (cold table)", "decoded (warm)",
         "cache-off ms", "warm ms"],
        rows,
    )
    _record_bench("topk_filtered", payload)
    benchmark.extra_info["topk_filtered"] = payload
