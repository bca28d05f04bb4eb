"""Self-healing drills: measured MTTR and zero-fault supervisor cost.

Two numbers back the supervisor's claims:

- **MTTR** — a seeded node kill heals through the heartbeat loop alone
  (no test-harness ``recover_node``); the recovery record's measured
  MTTR must stay within ``REPRO_RECOVERY_MTTR_FACTOR`` (default 2x) of
  the lease timeout.  Detection latency is honest: the scheduler
  advances in sub-lease heartbeat steps, so MTTR includes the full
  lease-expiry wait plus WAL replay.
- **Zero-fault overhead** — with no faults injected, a supervised
  platform runs every query past a liveness check and a heartbeat job
  beside it (region writes are logged through per-server WAL handles
  in both arms: the cluster owns the logs).  Interleaved A/B medians of
  the same workload with the supervisor on vs off must differ by at
  most ``REPRO_RECOVERY_OVERHEAD_MAX`` (default 10%) — the CI
  ``bench-gates`` gate.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import warnings

from repro.config import (
    ClusterConfig,
    FaultsConfig,
    PlatformConfig,
    SupervisorConfig,
)
from repro.core import MoDisSENSE, SearchQuery
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.core.scheduler import build_platform_scheduler
from repro.core.supervisor import HEARTBEAT_PERIOD_S, LEASE_TIMEOUT_S

from ._report import RESULTS_DIR, register_table

#: Users whose visits seed each drill platform.
N_USERS = int(os.environ.get("REPRO_BENCH_RECOVERY_USERS", 200))
#: Interleaved query pairs in the overhead comparison.
N_QUERIES = int(os.environ.get("REPRO_BENCH_RECOVERY_QUERIES", 150))
#: CI gate: MTTR must be <= this factor times the lease timeout.
MTTR_FACTOR = float(os.environ.get("REPRO_RECOVERY_MTTR_FACTOR", 2.0))
#: CI gate: supervised/unsupervised median wall ratio minus one.
OVERHEAD_MAX = float(os.environ.get("REPRO_RECOVERY_OVERHEAD_MAX", 0.10))

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_recovery.json")


def _record_bench(section: str, payload: dict) -> None:
    """Merge one bench's numbers into ``BENCH_recovery.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            data = json.load(f)
    data[section] = payload
    with open(BENCH_JSON, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _platform(supervised: bool) -> MoDisSENSE:
    cfg = PlatformConfig.baseline(
        ClusterConfig(num_nodes=4, regions_per_table=8)
    )
    cfg.faults = FaultsConfig(enabled=True, seed=42)
    cfg.supervisor = SupervisorConfig(enabled=supervised)
    p = MoDisSENSE(cfg)
    p.poi_repository.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                             keywords=("x",), category="cafe"))
    for uid in range(1, N_USERS + 1):
        p.visits_repository.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5, poi_name="A",
            lat=37.98, lon=23.73, keywords=("x",)))
    return p


def _query() -> SearchQuery:
    return SearchQuery(
        friend_ids=tuple(range(1, N_USERS + 1)), sort_by="hotness"
    )


def test_mttr_drill(benchmark):
    """Seeded kill -> lease expiry -> WAL split/replay, MTTR gated."""
    p = _platform(supervised=True)
    scheduler = build_platform_scheduler(p)
    lease, period = LEASE_TIMEOUT_S, HEARTBEAT_PERIOD_S
    victim = 1
    p.fault_injector.schedule_node_event(2, "fail", victim)

    def drill():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p.search(_query())                 # fan-out 1: clean
            degraded = p.search(_query())      # fan-out 2: crash lands
        # Heal through the heartbeat loop alone.
        for _ in range(int((lease + 2 * period) / period) + 1):
            scheduler.advance_by(period)
        healed = p.search(_query())
        return degraded, healed

    degraded, healed = benchmark.pedantic(drill, rounds=1, iterations=1)
    assert degraded.degraded and degraded.coverage < 1.0
    assert not healed.degraded and healed.coverage == 1.0
    assert len(p.supervisor.recovery_history) == 1
    record = p.supervisor.recovery_history[0]
    mttr_s = record["mttr_s"]
    # A forced drill for comparison: no detection wait, replay only.
    forced = p.supervisor.force_drill()
    gate_s = MTTR_FACTOR * lease

    register_table(
        "Self-healing drill: MTTR vs %.0fx lease-timeout gate"
        % MTTR_FACTOR,
        ["metric", "value"],
        [
            ["lease timeout (s, simulated)", "%.1f" % lease],
            ["heartbeat period (s, simulated)", "%.1f" % period],
            ["regions re-homed", len(record["regions"])],
            ["WAL cells replayed", record["cells_replayed"]],
            ["MTTR (s, simulated, incl. detection)", "%.3f" % mttr_s],
            ["forced-drill MTTR (s, replay only)",
             "%.3f" % forced["mttr_s"]],
            ["gate (s)", "%.1f" % gate_s],
        ],
    )
    _record_bench(
        "mttr_drill",
        {
            "users": N_USERS,
            "lease_timeout_s": lease,
            "heartbeat_period_s": period,
            "regions_rehomed": len(record["regions"]),
            "placement": record["regions"],
            "cells_replayed": record["cells_replayed"],
            "mttr_s": round(mttr_s, 4),
            "forced_drill_mttr_s": round(forced["mttr_s"], 4),
            "gate_mttr_factor": MTTR_FACTOR,
            "gate_s": gate_s,
        },
    )
    assert mttr_s <= gate_s
    assert forced["mttr_s"] <= mttr_s
    p.shutdown()


def test_zero_fault_overhead(benchmark):
    """Supervisor on vs off, no faults: the steady-state tax, gated."""
    supervised = _platform(supervised=True)
    baseline = _platform(supervised=False)
    query = _query()
    # Warm both stacks (JIT-free Python, but caches and lazy state).
    supervised.search(query)
    baseline.search(query)

    def interleaved():
        on_ms, off_ms = [], []
        for _ in range(N_QUERIES):
            t0 = time.perf_counter()
            supervised.search(query)
            on_ms.append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            baseline.search(query)
            off_ms.append((time.perf_counter() - t0) * 1e3)
        # The write path is where the WAL-handle indirection lives;
        # 10x the seed volume so the walls are measurable, not noise.
        n_writes = N_USERS * 10
        t0 = time.perf_counter()
        for i in range(n_writes):
            supervised.visits_repository.store(VisitStruct(
                user_id=i % N_USERS + 1, poi_id=1, timestamp=10_000 + i,
                grade=0.5, poi_name="A", lat=37.98, lon=23.73,
                keywords=("x",)))
        write_on_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(n_writes):
            baseline.visits_repository.store(VisitStruct(
                user_id=i % N_USERS + 1, poi_id=1, timestamp=10_000 + i,
                grade=0.5, poi_name="A", lat=37.98, lon=23.73,
                keywords=("x",)))
        write_off_s = time.perf_counter() - t0
        return on_ms, off_ms, write_on_s, write_off_s

    on_ms, off_ms, write_on_s, write_off_s = benchmark.pedantic(
        interleaved, rounds=1, iterations=1
    )
    median_on = statistics.median(on_ms)
    median_off = statistics.median(off_ms)
    overhead = median_on / median_off - 1.0
    write_overhead = write_on_s / write_off_s - 1.0

    register_table(
        "Supervisor zero-fault overhead (%d interleaved queries)"
        % N_QUERIES,
        ["metric", "supervisor off", "supervisor on"],
        [
            ["median query wall (ms)",
             "%.3f" % median_off, "%.3f" % median_on],
            ["query overhead", "", "%+.1f%%" % (overhead * 100)],
            ["%d-visit write wall (s)" % (N_USERS * 10),
             "%.3f" % write_off_s, "%.3f" % write_on_s],
            ["write overhead", "", "%+.1f%%" % (write_overhead * 100)],
            ["gate", "", "<= %.0f%%" % (OVERHEAD_MAX * 100)],
        ],
    )
    _record_bench(
        "zero_fault_overhead",
        {
            "queries": N_QUERIES,
            "median_query_ms_supervised": round(median_on, 3),
            "median_query_ms_baseline": round(median_off, 3),
            "query_overhead": round(overhead, 4),
            "write_wall_s_supervised": round(write_on_s, 4),
            "write_wall_s_baseline": round(write_off_s, 4),
            "write_overhead": round(write_overhead, 4),
            "gate_overhead_max": OVERHEAD_MAX,
        },
    )
    assert overhead <= OVERHEAD_MAX
    supervised.shutdown()
    baseline.shutdown()
