"""Resilient fan-out — recovery machinery must be free when idle.

The retry/hedge/breaker path added to ``HBaseCluster`` runs on every
region invocation, so this bench is the guard that keeps the clean path
honest: it replays the personalized workload through the same platform
twice per repetition — injector detached vs an *armed-but-quiet*
:class:`FaultInjector` (enabled, all rates zero) — and fails if

- any answer differs in any observable field (the byte-identical
  contract of the zero-fault path), or
- the armed medians exceed the detached ones by more than
  ``REPRO_FAULT_OVERHEAD_PCT`` (default 10) percent on the largest
  friend count.

It then smoke-tests the degraded path itself: kill one node with lost
replicas, assert the query still answers (flagged, with missing
regions), recover, and assert the exact answer returns.

Repetitions alternate armed/detached so ambient machine noise hits both
sides equally.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.config import FaultsConfig
from repro.core import FaultInjector, SearchQuery

from ._report import register_table
from ._workload import NUM_USERS, friend_sample, paper_read_path

#: Same axis as Figure 2 (truncated at smoke scale); the ISSUE's worked
#: example — one dead node at 6000 friends — rides the largest count.
FRIEND_COUNTS = tuple(
    f for f in (500, 2000, 3500, 6000) if f < NUM_USERS
) or (NUM_USERS // 4, NUM_USERS // 2)
REPETITIONS = max(5, int(os.environ.get("REPRO_BENCH_REPETITIONS", 10)))
OVERHEAD_LIMIT_PCT = float(os.environ.get("REPRO_FAULT_OVERHEAD_PCT", 10.0))


def _fingerprint(result):
    return (
        [(p.poi_id, p.name, p.score, p.visit_count) for p in result.pois],
        result.latency_ms,
        result.records_scanned,
        result.regions_used,
        result.regions_pruned,
        result.cells_decoded,
        result.degraded,
        result.missing_regions,
        result.coverage,
    )


def _wall_ms(qa, query):
    t0 = time.perf_counter()
    result = qa.search(query)
    return (time.perf_counter() - t0) * 1e3, result


def test_zero_fault_overhead_under_limit(bench_platform, benchmark):
    qa = bench_platform.query_answering
    cluster = bench_platform.hbase
    quiet = FaultInjector(FaultsConfig(enabled=True))

    def measure():
        series = {}
        try:
            for friends in FRIEND_COUNTS:
                query = SearchQuery(
                    friend_ids=friend_sample(friends, seed=8000 + friends),
                    sort_by="interest",
                    limit=10,
                )
                # Warm both paths (code caches, page cache).
                cluster.fault_injector = None
                qa.search(query)
                cluster.fault_injector = quiet
                qa.search(query)
                detached, armed = [], []
                for _ in range(REPETITIONS):
                    cluster.fault_injector = None
                    ms_off, r_off = _wall_ms(qa, query)
                    cluster.fault_injector = quiet
                    ms_on, r_on = _wall_ms(qa, query)
                    detached.append(ms_off)
                    armed.append(ms_on)
                    # Identical answers, injector armed or not.
                    assert _fingerprint(r_on) == _fingerprint(r_off)
                series[friends] = (
                    statistics.median(detached),
                    statistics.median(armed),
                )
        finally:
            cluster.fault_injector = None
        return series

    with paper_read_path(bench_platform):
        series = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for friends in FRIEND_COUNTS:
        off_ms, on_ms = series[friends]
        overhead = (on_ms - off_ms) / off_ms * 100.0 if off_ms else 0.0
        rows.append([
            friends, "%.2f" % off_ms, "%.2f" % on_ms, "%+.1f%%" % overhead,
        ])
    register_table(
        "Resilient fan-out: wall-clock per query, injector detached vs"
        " armed-with-zero-rates (median of %d reps)" % REPETITIONS,
        ["friends", "detached (ms)", "armed (ms)", "overhead"],
        rows,
    )
    benchmark.extra_info["series"] = {
        str(f): {"detached_ms": off, "armed_ms": on}
        for f, (off, on) in series.items()
    }

    largest = FRIEND_COUNTS[-1]
    off_ms, on_ms = series[largest]
    overhead_pct = (on_ms - off_ms) / off_ms * 100.0
    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        "resilience overhead %.1f%% exceeds %.1f%% at %d friends"
        " (detached %.2fms, armed %.2fms)"
        % (overhead_pct, OVERHEAD_LIMIT_PCT, largest, off_ms, on_ms)
    )


def test_degraded_mode_smoke(bench_platform):
    """The ISSUE's worked example: one node of the bench cluster dies
    with its replicas behind; the largest query must still answer —
    flagged — and return to the exact answer after recovery."""
    import warnings

    qa = bench_platform.query_answering
    cluster = bench_platform.hbase
    query = SearchQuery(
        friend_ids=friend_sample(FRIEND_COUNTS[-1], seed=8000),
        sort_by="interest",
        limit=10,
    )
    injector = FaultInjector(FaultsConfig(
        enabled=True, lost_region_fraction=1.0, stale_location_errors=0,
    ))
    with paper_read_path(bench_platform):
        try:
            clean = _fingerprint(qa.search(query))
            cluster.fault_injector = injector
            cluster.fail_node(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # DegradedResultWarning
                degraded = qa.search(query)
            assert degraded.degraded
            assert degraded.missing_regions
            assert 0.0 < degraded.coverage < 1.0
            assert len(degraded.pois) <= len(clean[0]) or degraded.pois
            cluster.recover_node(0)
            restored = qa.search(query)
            cluster.fault_injector = None
            assert _fingerprint(restored) == clean
        finally:
            cluster.fault_injector = None
            if 0 not in cluster.simulation.live_nodes():
                cluster.recover_node(0)
