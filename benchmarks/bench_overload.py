"""Overload drill: the admission layer's three headline claims, gated.

- **Brownout drill** — a deterministic 2x-overload closed-loop drives
  the ladder through every rung: goodput (served interactive work as a
  fraction of concurrency capacity) must stay at or above
  ``REPRO_OVERLOAD_GOODPUT_MIN`` (default 80%), and rejections must be
  priority-ordered — background shed outright before admin, interactive
  never shed outright.
- **Latency collapse without admission** — the web-tier queueing model
  at 2x arrival rate: unshed load grows the p99 without bound while a
  capacity-matched (admission-shaped) arrival stream stays flat; the
  collapse ratio must exceed ``REPRO_OVERLOAD_COLLAPSE_MIN`` (4x).

Admission is part of every platform, so its idle cost is inside every
end-to-end number (``benchmarks/e2e``) rather than an on/off pair here.
"""

from __future__ import annotations

import json
import os
import statistics
import warnings

from repro.cluster import MergeWork, WebServerFarm
from repro.config import (
    AdmissionConfig,
    ClusterConfig,
    PlatformConfig,
)
from repro.core import MoDisSENSE, SearchQuery
from repro.core.admission import (
    LEVEL_NAMES,
    MAX_LEVEL,
    PRIORITY_ADMIN,
    PRIORITY_BACKGROUND,
    PRIORITY_INTERACTIVE,
)
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.errors import OverloadedError

from ._report import RESULTS_DIR, register_table

#: Users whose visits seed each drill platform.
N_USERS = int(os.environ.get("REPRO_BENCH_OVERLOAD_USERS", 100))
#: Closed-loop waves in the brownout drill.
N_WAVES = int(os.environ.get("REPRO_BENCH_OVERLOAD_WAVES", 20))
#: CI gate: served interactive work / concurrency capacity.
GOODPUT_MIN = float(os.environ.get("REPRO_OVERLOAD_GOODPUT_MIN", 0.80))
#: CI gate: p99 ratio of unshed vs capacity-matched arrivals.
COLLAPSE_MIN = float(os.environ.get("REPRO_OVERLOAD_COLLAPSE_MIN", 4.0))

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_overload.json")


def _record_bench(section: str, payload: dict) -> None:
    """Merge one bench's numbers into ``BENCH_overload.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            data = json.load(f)
    data[section] = payload
    with open(BENCH_JSON, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _platform() -> MoDisSENSE:
    p = MoDisSENSE(PlatformConfig(
        cluster=ClusterConfig(num_nodes=4, regions_per_table=8),
        admission=AdmissionConfig(initial_limit=8, max_limit=16),
    ))
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


def test_brownout_drill(benchmark):
    """2x closed-loop overload: every wave offers twice the interactive
    concurrency capacity plus a background/admin mix, serves what the
    controller admits, and ticks the ladder once."""
    p = _platform()
    ctrl = p.admission
    query = _query()

    def drill():
        levels = []
        capacity = served = 0
        offered = {c: 0 for c in (PRIORITY_INTERACTIVE, PRIORITY_ADMIN,
                                  PRIORITY_BACKGROUND)}
        shed = dict(offered)  # outright brownout rejections per class
        latencies = []
        first_shed_wave = {}
        for wave in range(N_WAVES):
            limit = ctrl.limiters[PRIORITY_INTERACTIVE].limit
            capacity += limit
            tickets = []
            wave_offers = (
                [PRIORITY_INTERACTIVE] * (2 * limit)
                + [PRIORITY_BACKGROUND] * 4
                + [PRIORITY_ADMIN] * 2
            )
            for cls in wave_offers:
                offered[cls] += 1
                try:
                    tickets.append(ctrl.admit(cls))
                except OverloadedError as exc:
                    if "brownout" in str(exc):
                        shed[cls] += 1
                        first_shed_wave.setdefault(cls, wave)
            for ticket in tickets:
                if ticket.priority == PRIORITY_INTERACTIVE:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        result = p.search(query)
                    served += 1
                    latencies.append(result.latency_ms)
                    ticket.finish(result.latency_ms)
                else:
                    ticket.finish()
            levels.append(ctrl.tick())
        return levels, capacity, served, offered, shed, \
            first_shed_wave, latencies

    levels, capacity, served, offered, shed, first_shed, latencies = \
        benchmark.pedantic(drill, rounds=1, iterations=1)
    goodput = served / capacity
    info = ctrl.describe()

    register_table(
        "Brownout drill: %d waves at 2x interactive load" % N_WAVES,
        ["metric", "value"],
        [
            ["final brownout level",
             "%d (%s)" % (levels[-1], LEVEL_NAMES[levels[-1]])],
            ["level trajectory", " ".join(map(str, levels))],
            ["interactive served / capacity",
             "%d / %d = %.0f%%" % (served, capacity, goodput * 100)],
            ["background shed outright",
             "%d / %d (first wave %s)" % (
                 shed[PRIORITY_BACKGROUND], offered[PRIORITY_BACKGROUND],
                 first_shed.get(PRIORITY_BACKGROUND))],
            ["admin shed outright",
             "%d / %d (first wave %s)" % (
                 shed[PRIORITY_ADMIN], offered[PRIORITY_ADMIN],
                 first_shed.get(PRIORITY_ADMIN))],
            ["interactive shed outright",
             "%d / %d" % (shed[PRIORITY_INTERACTIVE],
                          offered[PRIORITY_INTERACTIVE])],
            ["served median latency (ms, simulated)",
             "%.3f" % statistics.median(latencies)],
            ["goodput gate", ">= %.0f%%" % (GOODPUT_MIN * 100)],
        ],
    )
    _record_bench(
        "brownout_drill",
        {
            "waves": N_WAVES,
            "levels": levels,
            "final_level": levels[-1],
            "final_level_name": LEVEL_NAMES[levels[-1]],
            "interactive_capacity": capacity,
            "interactive_served": served,
            "goodput": round(goodput, 4),
            "offered": offered,
            "shed_outright": shed,
            "first_shed_wave": first_shed,
            "median_latency_ms": round(statistics.median(latencies), 4),
            "retry_budget": info["retry_budget"],
            "gate_goodput_min": GOODPUT_MIN,
        },
    )
    # Served interactive work tracks capacity through the whole drill.
    assert goodput >= GOODPUT_MIN
    # The ladder climbed monotonically to the top rung.
    assert levels == sorted(levels)
    assert levels[-1] == MAX_LEVEL
    # Priority-ordered shedding: background first, then admin, never
    # interactive.
    assert shed[PRIORITY_INTERACTIVE] == 0
    assert shed[PRIORITY_BACKGROUND] > shed[PRIORITY_ADMIN] > 0
    assert first_shed[PRIORITY_BACKGROUND] < first_shed[PRIORITY_ADMIN]
    p.shutdown()


def test_latency_collapse_without_admission(benchmark):
    """The web tier's queueing model at 2x arrival rate: without
    shedding the p99 grows without bound; shed to capacity it is flat."""
    n_jobs = 400
    items = 100_000

    def run():
        farm = WebServerFarm(num_servers=2, cores_per_server=4)
        service_s = items * farm.merge_cost_per_item_s
        cores = sum(len(s.core_available_at) for s in farm.servers)
        # Arrivals at twice the farm's aggregate service rate.
        overload_gap = service_s / (2 * cores)

        def p99(gap, keep_every):
            farm.reset()
            work = [
                MergeWork(query_id=i, items=items, ready_at=i * gap)
                for i in range(n_jobs)
                if i % keep_every == 0
            ]
            latencies = sorted(
                finish - job.ready_at
                for finish, job in zip(farm.schedule_merges(work), work)
            )
            return latencies[int(0.99 * (len(latencies) - 1))]

        # Admission off: everything offered is queued.
        collapsed = p99(overload_gap, keep_every=1)
        # Admission on: half the offers shed, arrivals match capacity.
        shaped = p99(overload_gap, keep_every=2)
        return collapsed, shaped, service_s

    collapsed, shaped, service_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    ratio = collapsed / shaped

    register_table(
        "Latency collapse at 2x load: admission off vs on",
        ["metric", "admission off", "admission on"],
        [
            ["p99 merge latency (s, simulated)",
             "%.3f" % collapsed, "%.3f" % shaped],
            ["vs single-merge service time (%.3fs)" % service_s,
             "%.0fx" % (collapsed / service_s),
             "%.1fx" % (shaped / service_s)],
            ["collapse ratio", "%.1fx" % ratio,
             "gate >= %.1fx" % COLLAPSE_MIN],
        ],
    )
    _record_bench(
        "latency_collapse",
        {
            "jobs_offered": n_jobs,
            "items_per_merge": items,
            "service_time_s": round(service_s, 4),
            "p99_unshed_s": round(collapsed, 4),
            "p99_shed_to_capacity_s": round(shaped, 4),
            "collapse_ratio": round(ratio, 2),
            "gate_collapse_min": COLLAPSE_MIN,
        },
    )
    assert ratio >= COLLAPSE_MIN
    # Shed-to-capacity stays within a small multiple of pure service.
    assert shaped <= 3 * service_s
