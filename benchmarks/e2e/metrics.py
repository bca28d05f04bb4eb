"""The benchmark's contract: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is ``render()`` of this
module, written once by ``python3 -m benchmarks.e2e
--write-benchmark-json``; ``--selftest`` fails if the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

COMMAND = ["python3", "-m", "benchmarks.e2e"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 12

#: name -> why (one line, <= 200 characters).
WORKLOADS: Dict[str, str] = {
    "fresh6000": (
        "Paper Fig. 2 anchor: fresh uniform 6000-friend searches share "
        "nothing, so caches and coalescing are bypassed and region scan "
        "+ aggregate + top-k do the work."
    ),
    "filtered2000": (
        "Fresh 2000-friend searches with bbox, keyword and since: "
        "filters force attribute decode and predicate evaluation, idle "
        "in fresh6000."
    ),
    "interactive_mix": (
        "2 clients, Zipf users re-issuing fixed 200-friend lists plus "
        "Zipf SQL searches: per-request fixed cost, caches, coalescing "
        "and lock/GIL sharing dominate; scans do little."
    ),
    "ingest_under_query": (
        "Open-loop 2000 visits/s then a burst, beside a search+SQL "
        "client: regions, caches and POI rows are written while read, "
        "so a read gain that costs the write side shows."
    ),
}

#: (name, unit, better, bound).  Every one is defined, and never 0, on
#: every workload: the driver prints all of them for each.  Times are
#: scaled to the reference host (see hostclock.py).  No bound is
#: narrower than three times the widest quartile spread measured on this
#: sandbox (README.md, "Repeatability"); 0.25 is the contract's cap.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("search_p50_ms", "ms", "lower", 0.25),
    ("sim_ms_p50", "ms", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Trace point -> candidate ``(module, class or None, attribute)``
#: targets; every target that exists is wrapped (see tracing.py).
TRACE_POINTS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "rest.handle_json": [("repro.core.api.rest", "RestApi", "handle_json")],
    "rest.handle": [("repro.core.api.rest", "RestApi", "handle")],
    "rest.validate": [("repro.core.api.rest", None, "validate_request")],
    "admission.admit": [
        ("repro.core.admission", "AdmissionController", "admit")
    ],
    "qa.search": [
        ("repro.core.modules.query_answering", "QueryAnsweringModule", "search")
    ],
    "visits.route_friends": [
        ("repro.core.repositories.visits", "VisitsRepository", "route_friends")
    ],
    "hbase.fanout": [
        ("repro.hbase.client", "HBaseCluster", "coprocessor_exec_routed")
    ],
    "coproc.run": [
        ("repro.core.modules.query_answering", "VisitScanCoprocessor", "run")
    ],
    "region.scan": [("repro.hbase.region", "Region", "scan")],
    "cache.lookup": [("repro.hbase.cache", "RegionScanCache", "lookup")],
    "cache.store": [("repro.hbase.cache", "RegionScanCache", "store")],
    "topk.merge": [("repro.core.modules.topk", "TopKMerger", "merge")],
    "sim.run_queries": [
        ("repro.cluster.simulation", "ClusterSimulation", "run_queries")
    ],
    "hotpoi.get": [("repro.core.caching", "HotPOICache", "get")],
    "poi.search": [("repro.core.repositories.poi", "POIRepository", "search")],
    "ingest.submit": [
        ("repro.core.ingest", "StreamingIngestTier", "submit_many")
    ],
    "wal.append_batch": [
        ("repro.hbase.wal", "WriteAheadLog", "append_batch"),
        ("repro.hbase.wal", "RegionWALHandle", "append_batch"),
    ],
    "region.put_batch": [("repro.hbase.region", "Region", "put_batch")],
    "hotin.fold": [
        ("repro.core.modules.hotin_update", "IncrementalHotIn", "fold")
    ],
    "hotin.refresh_pois": [
        ("repro.core.modules.hotin_update", "IncrementalHotIn", "refresh_pois")
    ],
}

#: Per-request counts taken as the difference of two ``admin_metrics``
#: snapshots around the traced segment: (name, unit, better).
COUNTS: List[Tuple[str, str, str]] = [
    ("records.scanned", "count", "lower"),
    ("cells.decoded", "count", "lower"),
    ("cells.avoided", "count", "higher"),
    ("regions.used", "count", "lower"),
    ("regions.pruned", "count", "higher"),
    ("regions.pruned_early", "count", "higher"),
    ("topk.rounds", "count", "lower"),
    ("cache.scan.hit_share", "%", "higher"),
    ("cache.hot_poi.hit_share", "%", "higher"),
    ("queries.coalesced", "count", "higher"),
    ("admission.rejected", "count", "lower"),
    ("fanout.retries", "count", "lower"),
    ("ingest.batches", "count", "lower"),
    ("ingest.batch_size_mean", "count", "higher"),
    ("ingest.wal_group_commits", "count", "lower"),
    ("ingest.hotin_refreshes", "count", "lower"),
    ("ingest.backpressure_events", "count", "lower"),
    ("rest.request_bytes", "B", "lower"),
    ("rest.response_bytes", "B", "lower"),
    ("gc.gen2_collections", "count", "lower"),
]

#: What a user sees on *some* workloads only (0 elsewhere).  The
#: driver's contract wants every end-to-end metric on every workload, so
#: these ride with the per-layer run, measured on its untraced segment.
USER: List[Tuple[str, str, str]] = [
    ("user.search_p95_ms", "ms", "lower"),
    ("user.sql_p50_ms", "ms", "lower"),
    ("user.sql_p95_ms", "ms", "lower"),
    ("user.ingest_lag_p50_ms", "ms", "lower"),
    ("user.ingest_lag_p90_ms", "ms", "lower"),
    ("user.ingest_burst_per_s", "1/s", "higher"),
]

HARNESS: List[Tuple[str, str, str]] = [
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.blocking_path_pct", "%", "higher"),
    ("harness.trace_points_missing", "count", "lower"),
    ("harness.calib_ms_min", "ms", "lower"),
    ("harness.calib_ms_max", "ms", "lower"),
    ("harness.generator_late_ms_max", "ms", "lower"),
    ("harness.search_tail_ms", "ms", "lower"),
]


def per_layer() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for point in TRACE_POINTS:
        out.append((point + ".self_ms", "ms", "lower"))
        out.append((point + ".cpu_ms", "ms", "lower"))
        out.append((point + ".calls", "count", "lower"))
    return out + COUNTS + USER + HARNESS


def render() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }
