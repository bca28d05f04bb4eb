"""Write-path benchmarks: the repositories' update-rate claims.

Paper Section 2.1: the GPS Traces Repository "is expected to deal with
a high update rate" (hence HBase, no indexes), while the POI repository
sees "low insert/update rates" (hence PostgreSQL with rich indexes).
These benches measure both write paths for real — actual wall time, no
simulation — plus the LSM machinery (flush + compaction) under load.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.config import ClusterConfig, IngestConfig, PlatformConfig
from repro.core import MoDisSENSE, SearchQuery
from repro.core.repositories.visits import VisitStruct
from repro.datagen import generate_pois
from repro.datagen.gps import GPSPoint

from ._report import RESULTS_DIR, register_table

N_GPS = 20_000
N_VISITS = 10_000
N_POIS = 2_000

# ---- streaming-ingest bench knobs (shrunk by CI smoke via env) -------------
#: Visits pushed through each write path in the group-commit microbench.
N_GROUP_COMMIT = int(os.environ.get("REPRO_BENCH_INGEST_WRITES", 80_000))
#: Visits streamed in the end-to-end concurrent-query bench.
N_STREAM = int(os.environ.get("REPRO_BENCH_INGEST_STREAM", 30_000))
#: Users in the streaming bench; friend sets sample from these.
N_STREAM_USERS = int(os.environ.get("REPRO_BENCH_INGEST_USERS", 8_000))
#: Friends per concurrent personalized query (paper sweeps to ~9500).
N_QUERY_FRIENDS = int(os.environ.get("REPRO_BENCH_INGEST_FRIENDS", 6_000))
#: CI gate: batched group-commit must beat single-put by this factor.
SPEEDUP_MIN = float(os.environ.get("REPRO_INGEST_SPEEDUP_MIN", 3.0))
#: Hotness-freshness SLO for the streaming-vs-seed comparison: the
#: seed path re-runs its full batch recompute every this many wall
#: seconds (the streaming tier's coalesced refresh, 0.25 s, is tighter).
FRESHNESS_S = float(os.environ.get("REPRO_BENCH_FRESHNESS_S", 0.5))

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_ingest.json")


def _record_bench(section: str, payload: dict) -> None:
    """Merge one bench's numbers into ``BENCH_ingest.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            data = json.load(f)
    data[section] = payload
    with open(BENCH_JSON, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _fresh_platform() -> MoDisSENSE:
    return MoDisSENSE(
        PlatformConfig.baseline(
            ClusterConfig(num_nodes=4, regions_per_table=8)
        )
    )


def test_write_throughput(benchmark):
    platform = _fresh_platform()
    rng = random.Random(17)
    pois = generate_pois(count=N_POIS, seed=17)

    gps_points = [
        GPSPoint(
            user_id=rng.randint(1, 500),
            lat=37.9 + rng.random() * 0.2,
            lon=23.6 + rng.random() * 0.2,
            timestamp=rng.randint(1, 1_000_000),
        )
        for _ in range(N_GPS)
    ]
    visits = [
        VisitStruct(
            user_id=rng.randint(1, 500),
            poi_id=rng.randint(1, N_POIS),
            timestamp=rng.randint(1, 1_000_000),
            grade=rng.random(),
            poi_name="Some Place",
            lat=37.9,
            lon=23.7,
            keywords=("food",),
        )
        for _ in range(N_VISITS)
    ]

    def ingest_all():
        t0 = time.perf_counter()
        platform.gps_repository.push_many(gps_points)
        gps_rate = N_GPS / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        platform.visits_repository.store_many(visits)
        visit_rate = N_VISITS / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        platform.load_pois(pois)
        poi_rate = N_POIS / (time.perf_counter() - t0)
        return gps_rate, visit_rate, poi_rate

    gps_rate, visit_rate, poi_rate = benchmark.pedantic(
        ingest_all, rounds=1, iterations=1
    )
    register_table(
        "Ingest throughput (writes/second, real wall time)",
        ["repository", "store", "writes/s"],
        [
            ["GPS traces (high update rate)", "HBase", "%.0f" % gps_rate],
            ["Visits", "HBase", "%.0f" % visit_rate],
            ["POIs (low insert rate)", "SQL, 4 indexes", "%.0f" % poi_rate],
        ],
    )
    # The unindexed HBase write paths must sustain a high rate.
    assert gps_rate > 5_000
    assert visit_rate > 5_000
    platform.shutdown()


def test_group_commit_vs_single_put(benchmark):
    """The streaming tier's storage-path claim, isolated and gated.

    Two identical WAL-attached tables absorb the same cell stream: one
    a put at a time (one sync boundary + one sorted insert each), one in
    256-cell group commits (one sync + one linear merge per region per
    batch).  Contents and WAL replay must come out identical; throughput
    must differ by at least ``REPRO_INGEST_SPEEDUP_MIN`` (default 3x) —
    the CI ``ingest-smoke`` gate.
    """
    from repro.hbase import Cell, HTable, TableDescriptor, WriteAheadLog

    def fresh_table() -> HTable:
        # HBase's production flush size (hbase.hregion.memstore.flush.size)
        # is 128 MB; the repo-wide 4 MB default would flush this stream
        # every few thousand cells and hide the memstore insert cost the
        # two write paths differ on.
        table = HTable(
            TableDescriptor(
                name="t", families=["f"], num_regions=4,
                flush_threshold_bytes=128 * 1024 * 1024,
            )
        )
        for region in table.regions:
            region.wal = WriteAheadLog()
        return table

    rng = random.Random(31)
    payload = json.dumps(
        {"grade": 0.5, "name": "Some Place", "lat": 37.9, "lon": 23.7,
         "keywords": ["food"], "hotness": 0.0, "interest": 0.0}
    ).encode()
    cells = [
        Cell(
            row=rng.randrange(1 << 16).to_bytes(2, "big") + b"-%08d" % i,
            family="f", qualifier=b"v", timestamp=i, value=payload,
        )
        for i in range(N_GROUP_COMMIT)
    ]

    def run_both():
        single = fresh_table()
        t0 = time.perf_counter()
        for cell in cells:
            single.put(cell)
        single_rate = len(cells) / (time.perf_counter() - t0)

        batched = fresh_table()
        t0 = time.perf_counter()
        for i in range(0, len(cells), 256):
            batched.put_batch(cells[i:i + 256])
        batched_rate = len(cells) / (time.perf_counter() - t0)
        return single, single_rate, batched, batched_rate

    single, single_rate, batched, batched_rate = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    speedup = batched_rate / single_rate

    # Correctness before speed: identical table contents, identical WAL
    # replay, and the group-commit ledger showing ~256x fewer syncs.
    single_scan = [(c.row, c.value) for c in single.scan("f")]
    batched_scan = [(c.row, c.value) for c in batched.scan("f")]
    assert batched_scan == single_scan
    single_syncs = sum(r.wal.sync_count for r in single.regions)
    batched_syncs = sum(r.wal.sync_count for r in batched.regions)
    assert single_syncs == N_GROUP_COMMIT
    assert batched_syncs <= (N_GROUP_COMMIT // 256 + 1) * 4

    register_table(
        "Group commit vs single put (%d visits, 4 regions, WAL on)"
        % N_GROUP_COMMIT,
        ["write path", "writes/s", "WAL sync boundaries"],
        [
            ["single put", "%.0f" % single_rate, single_syncs],
            ["group commit (256/batch)", "%.0f" % batched_rate,
             batched_syncs],
            ["speedup", "%.1fx" % speedup, ""],
        ],
    )
    _record_bench(
        "group_commit",
        {
            "writes": N_GROUP_COMMIT,
            "single_put_writes_per_s": round(single_rate),
            "batched_writes_per_s": round(batched_rate),
            "speedup": round(speedup, 2),
            "single_wal_syncs": single_syncs,
            "batched_wal_syncs": batched_syncs,
            "gate_min_speedup": SPEEDUP_MIN,
        },
    )
    assert speedup >= SPEEDUP_MIN


def test_streaming_ingest_with_concurrent_queries(benchmark):
    """End-to-end tentpole numbers: sustained writes/s while
    personalized ``N_QUERY_FRIENDS``-friend queries hammer the same
    regions, for both write paths under the same hotness-freshness SLO.

    Leg A streams through the ingest tier (group commit + incremental
    fold; visibility = coalesced dirty-POI refresh, staleness = drain
    lag).  Leg B is the seed path: synchronous single puts, with the
    batch MapReduce job re-run whenever ``FRESHNESS_S`` of wall time
    passes — the job rescans the *entire* visit history each time,
    which is exactly the cost the incremental fold eliminates.  The
    issue's acceptance gate is the ratio: streaming must sustain at
    least ``REPRO_INGEST_SPEEDUP_MIN``x the seed rate.  Finishes with
    the staleness oracle: incremental state == from-scratch recompute.
    """
    friends_n = min(N_QUERY_FRIENDS, N_STREAM_USERS)
    config = PlatformConfig.baseline(
        ClusterConfig(num_nodes=4, regions_per_table=8)
    )
    config.ingest = IngestConfig(
        enabled=True,
        num_partitions=4,
        queue_capacity=8192,
        max_batch=256,
        rebalance_min_events=N_STREAM // 4 + 1,
    )
    platform = MoDisSENSE(config)
    platform.load_pois(generate_pois(count=N_POIS, seed=19))
    rng = random.Random(19)
    # Unique (user, ts, poi) keys and dyadic grades: the final oracle
    # equality is exact, not approximate.
    visits = [
        VisitStruct(
            user_id=rng.randint(1, N_STREAM_USERS),
            poi_id=rng.randint(1, N_POIS),
            timestamp=i + 1,
            grade=rng.randrange(0, 21) * 0.25,
            poi_name="Some Place",
            lat=37.9,
            lon=23.7,
            keywords=("food",),
        )
        for i in range(N_STREAM)
    ]
    friend_ids = tuple(
        rng.sample(range(1, N_STREAM_USERS + 1), friends_n)
    )

    query_stats = {"count": 0, "wall_ms": 0.0}
    stop_queries = threading.Event()

    def query_loop():
        while not stop_queries.is_set():
            t0 = time.perf_counter()
            platform.search(SearchQuery(friend_ids=friend_ids))
            query_stats["wall_ms"] += (time.perf_counter() - t0) * 1e3
            query_stats["count"] += 1

    # Seed-path leg: same visit mix, timestamps disjointly above the
    # streamed window so the oracle check stays exact.
    n_seed = max(1_000, N_STREAM // 2)
    seed_visits = [
        VisitStruct(
            user_id=rng.randint(1, N_STREAM_USERS),
            poi_id=rng.randint(1, N_POIS),
            timestamp=N_STREAM + 10 + i,
            grade=rng.randrange(0, 21) * 0.25,
            poi_name="Some Place",
            lat=37.9,
            lon=23.7,
            keywords=("food",),
        )
        for i in range(n_seed)
    ]

    def run_seed_batch_job(until_ts):
        """One full-history batch recompute + POI push — what the seed
        path pays every freshness deadline."""
        pairs, _ = platform.hotin_update._aggregate(
            0, until_ts, "bench-seed-refresh"
        )
        for poi_id, (count, grade_sum) in pairs:
            platform.poi_repository.update_hotin(
                poi_id, hotness=float(count), interest=grade_sum / count
            )

    def both_legs_under_load():
        thread = threading.Thread(target=query_loop, daemon=True)
        thread.start()
        try:
            # Leg A: batched streaming path.
            t_start = time.perf_counter()
            platform.ingest_visits(visits)
            t_submitted = time.perf_counter()
            assert platform.ingest.drain(timeout_s=120.0)
            t_drained = time.perf_counter()

            # Leg B: seed single-put path under the same freshness SLO.
            job_walls = []
            t_seed_start = time.perf_counter()
            last_job = t_seed_start
            for v in seed_visits:
                platform.visits_repository.store(v)
                if time.perf_counter() - last_job >= FRESHNESS_S:
                    t0 = time.perf_counter()
                    run_seed_batch_job(v.timestamp + 1)
                    job_walls.append(time.perf_counter() - t0)
                    last_job = time.perf_counter()
            t0 = time.perf_counter()  # final job: parity with drain
            run_seed_batch_job(seed_visits[-1].timestamp + 1)
            job_walls.append(time.perf_counter() - t0)
            t_seed_end = time.perf_counter()
        finally:
            stop_queries.set()
            thread.join(timeout=60.0)
        return t_start, t_submitted, t_drained, t_seed_start, t_seed_end, job_walls

    (t_start, t_submitted, t_drained, t_seed_start, t_seed_end,
     job_walls) = benchmark.pedantic(
        both_legs_under_load, rounds=1, iterations=1
    )
    writes_per_s = N_STREAM / (t_drained - t_start)
    staleness_s = t_drained - t_submitted
    seed_writes_per_s = n_seed / (t_seed_end - t_seed_start)
    seed_job_wall_s = max(job_walls)
    sustained_speedup = writes_per_s / seed_writes_per_s

    # Staleness oracle: after drain, incremental == batch recompute
    # (the window excludes the seed leg's disjoint timestamps).
    pairs, _scanned = platform.hotin_update._aggregate(
        0, N_STREAM + 1, "bench-oracle"
    )
    truth = {p: (c, g) for p, (c, g) in pairs}
    assert platform.incremental_hotin.snapshot(0, N_STREAM + 1) == truth

    mean_query_ms = (
        query_stats["wall_ms"] / query_stats["count"]
        if query_stats["count"] else 0.0
    )
    register_table(
        "Streaming vs seed ingest under %d-friend query load "
        "(freshness SLO %.2fs)" % (friends_n, FRESHNESS_S),
        ["metric", "value"],
        [
            ["visits streamed (tier)", N_STREAM],
            ["streaming writes/s (incl. drain)", "%.0f" % writes_per_s],
            ["streaming staleness (s, submit->visible)",
             "%.3f" % staleness_s],
            ["visits stored (seed single put)", n_seed],
            ["seed writes/s (incl. batch recomputes)",
             "%.0f" % seed_writes_per_s],
            ["seed batch-recompute wall (s, worst)",
             "%.3f" % seed_job_wall_s],
            ["sustained speedup", "%.1fx" % sustained_speedup],
            ["concurrent queries completed", query_stats["count"]],
            ["mean query wall (ms)", "%.1f" % mean_query_ms],
            ["incremental == batch recompute", "yes"],
        ],
    )
    _record_bench(
        "streaming_under_query_load",
        {
            "visits_streamed": N_STREAM,
            "users": N_STREAM_USERS,
            "query_friends": friends_n,
            "freshness_slo_s": FRESHNESS_S,
            "writes_per_s": round(writes_per_s),
            "staleness_s": round(staleness_s, 3),
            "seed_visits": n_seed,
            "seed_writes_per_s": round(seed_writes_per_s),
            "seed_batch_recompute_wall_s": round(seed_job_wall_s, 3),
            "sustained_speedup": round(sustained_speedup, 2),
            "concurrent_queries": query_stats["count"],
            "mean_query_wall_ms": round(mean_query_ms, 1),
            "oracle_in_sync": True,
            "gate_min_speedup": SPEEDUP_MIN,
        },
    )
    # The issue's acceptance gate: >= 3x sustained writes/s for the
    # batched streaming path vs the seed single-put path, same SLO.
    assert sustained_speedup >= SPEEDUP_MIN
    platform.shutdown()


def test_flush_and_compaction_under_load(benchmark):
    """Data stays readable as memstores roll to store files and compact;
    compaction bounds the file count and read amplification."""
    from repro.hbase import Cell, HTable, TableDescriptor

    table = HTable(
        TableDescriptor(
            name="t", families=["f"], num_regions=4,
            flush_threshold_bytes=64 * 1024,
        )
    )
    rng = random.Random(23)

    def load_and_compact():
        for i in range(30_000):
            row = rng.randrange(1 << 16).to_bytes(2, "big") + b"-%d" % i
            table.put(
                Cell(row=row, family="f", qualifier=b"q",
                     timestamp=i, value=b"x" * 40)
            )
        files_before = sum(r.store_file_count("f") for r in table.regions)
        t0 = time.perf_counter()
        table.compact()
        compact_s = time.perf_counter() - t0
        files_after = sum(r.store_file_count("f") for r in table.regions)
        t0 = time.perf_counter()
        scanned = sum(1 for _ in table.scan("f"))
        scan_s = time.perf_counter() - t0
        return files_before, files_after, compact_s, scanned, scan_s

    files_before, files_after, compact_s, scanned, scan_s = benchmark.pedantic(
        load_and_compact, rounds=1, iterations=1
    )
    register_table(
        "LSM maintenance: 30k writes with 64 KiB memstores",
        ["metric", "value"],
        [
            ["store files before compaction", files_before],
            ["store files after compaction", files_after],
            ["compaction wall time (s)", "%.2f" % compact_s],
            ["rows scanned after compaction", scanned],
            ["full scan wall time (s)", "%.2f" % scan_s],
        ],
    )
    assert files_before > files_after
    assert files_after <= 4  # one per region
    assert scanned == 30_000
