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
from repro.core.repositories.visits import VisitsRepository, VisitStruct
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
#: Rounds of the streaming-vs-seed comparison; its gate reads the median.
STREAM_ROUNDS = 3

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
        PlatformConfig(cluster=ClusterConfig(num_nodes=4, regions_per_table=8))
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
    the CI ``bench-gates`` gate.
    """
    from repro.hbase import Cell, HTable, TableDescriptor, RegionWALHandle

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
            region.wal = RegionWALHandle()
        return table

    rng = random.Random(31)
    payload = VisitsRepository.encode_payload(
        VisitStruct(user_id=1, poi_id=1, timestamp=1, grade=0.5,
                    poi_name="Some Place", lat=37.9, lon=23.7,
                    keywords=("food",))
    )
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
            # Routed per region, as the ingest appliers route a batch.
            groups = {}
            for cell in cells[i:i + 256]:
                groups.setdefault(
                    batched.region_for_row(cell.row), []
                ).append(cell)
            for region, group in groups.items():
                region.put_batch(group)
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


def test_memstore_absorb_crossover(benchmark):
    """The measurement behind ``memstore.ABSORB_MAX_CELLS``: one
    consolidation of a ``k``-cell pending batch into an ``n``-cell run,
    forced through the in-place absorb and through the one-pass
    rebuild (DESIGN.md §9).

    Both grow with ``n`` — an insert moves half the run's three
    columns, a rebuild copies all of them — so the break-even batch
    size barely moves while ``n`` grows 48x, which is why the threshold
    is a cell count and not a share of the run.  Gated only where the
    answer is unambiguous: a handful of cells must be cheaper absorbed,
    a thousand cheaper rebuilt, and the constant must lie in between.
    (What the microbench leaves out favours absorbing: a rebuild's
    three new lists are young objects every later gen-0/gen-1 GC pass
    traverses until they are promoted.)
    """
    import statistics
    from unittest import mock

    import repro.hbase.memstore as memstore_mod
    from repro.hbase import Cell, MemStore

    rng = random.Random(41)
    sizes = (500, 6_000, 24_000)
    batches = (8, 32, 64, 128, 256, 512, 1024)
    reps = 9

    def cells(count):
        return [
            Cell(row=rng.randbytes(29), family="v", qualifier=b"v",
                 timestamp=i, value=b"x" * 120)
            for i in range(count)
        ]

    def consolidate_us(base, k, absorb_max_cells):
        samples = []
        for _ in range(reps):
            store = MemStore(flush_threshold_bytes=1 << 40)
            store.put_batch(base)
            len(store)  # the run is built; nothing pending
            batch = cells(k)
            store.put_batch(batch[: k // 2])
            store.put_batch(batch[k // 2:])
            with mock.patch.object(
                memstore_mod, "ABSORB_MAX_CELLS", absorb_max_cells
            ):
                t0 = time.perf_counter()
                len(store)
                samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e6

    def measure():
        rows = []
        for n in sizes:
            base = cells(n)
            for k in batches:
                rows.append({
                    "run_cells": n,
                    "batch_cells": k,
                    "in_place_us": round(consolidate_us(base, k, 1 << 60), 1),
                    "rebuild_us": round(consolidate_us(base, k, 0), 1),
                })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    break_even = {
        n: next(
            (r["batch_cells"] for r in rows
             if r["run_cells"] == n and r["rebuild_us"] < r["in_place_us"]),
            None,
        )
        for n in sizes
    }
    register_table(
        "MemStore consolidation: in-place absorb vs one-pass rebuild "
        "(us, median of %d; ABSORB_MAX_CELLS = %d)"
        % (reps, memstore_mod.ABSORB_MAX_CELLS),
        ["run cells", "batch cells", "in place", "rebuild", "cheaper"],
        [
            [r["run_cells"], r["batch_cells"], r["in_place_us"],
             r["rebuild_us"],
             "in place" if r["in_place_us"] <= r["rebuild_us"] else "rebuild"]
            for r in rows
        ],
    )
    _record_bench(
        "memstore_absorb_crossover",
        {
            "absorb_max_cells": memstore_mod.ABSORB_MAX_CELLS,
            "first_batch_cells_cheaper_rebuilt": {
                str(n): k for n, k in break_even.items()
            },
            "rows": rows,
        },
    )
    by_key = {(r["run_cells"], r["batch_cells"]): r for r in rows}
    assert batches[0] < memstore_mod.ABSORB_MAX_CELLS < batches[-1]
    for n in sizes[1:]:
        small, large = by_key[n, batches[0]], by_key[n, batches[-1]]
        assert small["in_place_us"] * 1.5 < small["rebuild_us"]
        assert large["rebuild_us"] < large["in_place_us"]


def _streaming_round() -> dict:
    """One fresh platform through both legs of
    :func:`test_streaming_ingest_with_concurrent_queries`; returns the
    round's numbers after checking its staleness oracle."""
    friends_n = min(N_QUERY_FRIENDS, N_STREAM_USERS)
    platform = MoDisSENSE(PlatformConfig(
        cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
        ingest=IngestConfig(
            num_partitions=4,
            queue_capacity=8192,
            max_batch=256,
            rebalance_min_events=N_STREAM // 4 + 1,
        ),
    ))
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
    assert not thread.is_alive()

    # Staleness oracle: after drain, incremental == batch recompute
    # (the window excludes the seed leg's disjoint timestamps).
    pairs, _scanned = platform.hotin_update._aggregate(
        0, N_STREAM + 1, "bench-oracle"
    )
    truth = {p: (c, g) for p, (c, g) in pairs}
    assert platform.incremental_hotin.snapshot(0, N_STREAM + 1) == truth
    platform.shutdown()

    writes_per_s = N_STREAM / (t_drained - t_start)
    seed_writes_per_s = n_seed / (t_seed_end - t_seed_start)
    return {
        "query_friends": friends_n,
        "writes_per_s": writes_per_s,
        "staleness_s": t_drained - t_submitted,
        "seed_visits": n_seed,
        "seed_writes_per_s": seed_writes_per_s,
        "seed_batch_recompute_wall_s": max(job_walls),
        "sustained_speedup": writes_per_s / seed_writes_per_s,
        "concurrent_queries": query_stats["count"],
        "mean_query_wall_ms": (
            query_stats["wall_ms"] / query_stats["count"]
            if query_stats["count"] else 0.0
        ),
    }


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
    least ``REPRO_INGEST_SPEEDUP_MIN``x the seed rate.  The ratio has
    two noisy arms (a host hiccup in either moves it by tens of
    percent), so the gate reads the median of ``STREAM_ROUNDS`` rounds,
    each on a fresh platform; the recorded numbers are the median
    round's.  Every round finishes with the staleness oracle:
    incremental state == from-scratch recompute.
    """
    rounds = benchmark.pedantic(
        lambda: [_streaming_round() for _ in range(STREAM_ROUNDS)],
        rounds=1, iterations=1,
    )
    rounds.sort(key=lambda r: r["sustained_speedup"])
    median = rounds[len(rounds) // 2]
    sustained_speedup = median["sustained_speedup"]
    register_table(
        "Streaming vs seed ingest under %d-friend query load "
        "(freshness SLO %.2fs, median of %d rounds)"
        % (median["query_friends"], FRESHNESS_S, STREAM_ROUNDS),
        ["metric", "value"],
        [
            ["visits streamed (tier)", N_STREAM],
            ["streaming writes/s (incl. drain)",
             "%.0f" % median["writes_per_s"]],
            ["streaming staleness (s, submit->visible)",
             "%.3f" % median["staleness_s"]],
            ["visits stored (seed single put)", median["seed_visits"]],
            ["seed writes/s (incl. batch recomputes)",
             "%.0f" % median["seed_writes_per_s"]],
            ["seed batch-recompute wall (s, worst)",
             "%.3f" % median["seed_batch_recompute_wall_s"]],
            ["sustained speedup", "%.1fx" % sustained_speedup],
            ["sustained speedup, every round",
             " ".join("%.1fx" % r["sustained_speedup"] for r in rounds)],
            ["concurrent queries completed", median["concurrent_queries"]],
            ["mean query wall (ms)", "%.1f" % median["mean_query_wall_ms"]],
            ["incremental == batch recompute", "yes"],
        ],
    )
    _record_bench(
        "streaming_under_query_load",
        {
            "visits_streamed": N_STREAM,
            "users": N_STREAM_USERS,
            "query_friends": median["query_friends"],
            "freshness_slo_s": FRESHNESS_S,
            "writes_per_s": round(median["writes_per_s"]),
            "staleness_s": round(median["staleness_s"], 3),
            "seed_visits": median["seed_visits"],
            "seed_writes_per_s": round(median["seed_writes_per_s"]),
            "seed_batch_recompute_wall_s": round(
                median["seed_batch_recompute_wall_s"], 3
            ),
            "sustained_speedup": round(sustained_speedup, 2),
            "sustained_speedup_rounds": [
                round(r["sustained_speedup"], 2) for r in rounds
            ],
            "concurrent_queries": median["concurrent_queries"],
            "mean_query_wall_ms": round(median["mean_query_wall_ms"], 1),
            "oracle_in_sync": True,
            "gate_min_speedup": SPEEDUP_MIN,
        },
    )
    # The issue's acceptance gate: >= 3x sustained writes/s for the
    # batched streaming path vs the seed single-put path, same SLO.
    assert sustained_speedup >= SPEEDUP_MIN


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
