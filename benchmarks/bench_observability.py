"""Observability overhead and SLO gates — telemetry must stay cheap.

The telemetry pipeline (time-series scrapes, wide events, exemplars,
the continuous profiler) defaults to ON, so this bench is the guard
that keeps that default honest:

- ``test_telemetry_overhead_under_limit`` replays the 6000-friend
  personalized query through two query modules over the *same*
  repositories — one with the full observability stack (tracer, wide
  events, metrics with exemplars, profiler sampling, per-rep scrapes),
  one with all of it off — and fails if the instrumented medians exceed
  the bare ones by more than ``REPRO_OBS_OVERHEAD_PCT`` (default 10)
  percent.  It also asserts the two paths return identical answers.

- ``test_profiler_attribution_mixed_load`` runs a mixed read+ingest
  workload through the REST layer with the profiler on and requires
  >= ``REPRO_OBS_ATTRIBUTION_MIN`` (default 0.9) of wall-clock samples
  to be attributed to a registered component.

- ``test_ingest_freshness_slo_green_under_load`` drives the PR-5
  streaming-ingest load with telemetry scraping each simulated second
  and requires the ``ingest_freshness`` SLO to stay healthy.

Numbers land in ``benchmarks/results/BENCH_observability.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time

from repro import RestApi
from repro.config import (
    ClusterConfig,
    IngestConfig,
    PlatformConfig,
    TelemetryConfig,
)
from repro.core import MoDisSENSE, SearchQuery
from repro.core.modules.query_answering import QueryAnsweringModule
from repro.core.monitoring import PlatformMetrics
from repro.core.telemetry import (
    ContinuousProfiler,
    TimeSeriesStore,
    WideEventLog,
)
from repro.core.repositories.visits import VisitStruct
from repro.core.tracing import NULL_TRACER, Tracer

from ._report import RESULTS_DIR, register_table
from ._workload import friend_sample

#: The acceptance query: the paper's worst-case smoke-scale fan-out.
N_QUERY_FRIENDS = int(os.environ.get("REPRO_BENCH_OBS_FRIENDS", 6_000))
REPETITIONS = max(5, int(os.environ.get("REPRO_BENCH_REPETITIONS", 10)))
OVERHEAD_LIMIT_PCT = float(os.environ.get("REPRO_OBS_OVERHEAD_PCT", 10.0))
ATTRIBUTION_MIN = float(os.environ.get("REPRO_OBS_ATTRIBUTION_MIN", 0.9))

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_observability.json")


def _record_bench(section: str, payload: dict) -> None:
    """Merge one bench's numbers into ``BENCH_observability.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            data = json.load(f)
    data[section] = payload
    with open(BENCH_JSON, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _wall_ms(qa, query):
    t0 = time.perf_counter()
    result = qa.search(query)
    return (time.perf_counter() - t0) * 1e3, result


def test_telemetry_overhead_under_limit(bench_platform, benchmark):
    # Two modules over the same repositories.  The instrumented one
    # carries the full per-query observability cost: span trees, the
    # wide-event emission, metrics (with exemplars), and — while its
    # reps run — the wall-clock profiler plus a scrape per rep (in
    # production scrapes run at 1 Hz, so one per rep overstates them).
    metrics = PlatformMetrics()
    store = TimeSeriesStore()
    events = WideEventLog()
    # The shipped default sampling rate — the gate is about what
    # telemetry costs in the configuration users actually run.
    profiler = ContinuousProfiler(
        interval_s=TelemetryConfig().profiler_interval_s
    )
    observed_qa = QueryAnsweringModule(
        bench_platform.poi_repository,
        bench_platform.visits_repository,
        tracer=Tracer(max_traces=max(64, REPETITIONS + 2)),
        metrics=metrics,
        event_log=events,
    )
    bare_qa = QueryAnsweringModule(
        bench_platform.poi_repository,
        bench_platform.visits_repository,
        tracer=NULL_TRACER,
    )
    query = SearchQuery(
        friend_ids=friend_sample(N_QUERY_FRIENDS, seed=4000),
        sort_by="interest",
        limit=10,
    )

    def measure():
        # Warm both paths (code caches, page cache).
        bare_qa.search(query)
        observed_qa.search(query)
        bare, observed = [], []
        for rep in range(REPETITIONS):
            ms_off, r_off = _wall_ms(bare_qa, query)
            bare.append(ms_off)
            profiler.start()
            try:
                ms_on, r_on = _wall_ms(observed_qa, query)
                store.scrape(metrics.scrape_values(), float(rep))
            finally:
                profiler.stop()
            observed.append(ms_on)
            # Identical answers, instrumented or not.
            assert [
                (p.poi_id, p.score, p.visit_count) for p in r_on.pois
            ] == [(p.poi_id, p.score, p.visit_count) for p in r_off.pois]
            assert r_on.records_scanned == r_off.records_scanned
        return statistics.median(bare), statistics.median(observed)

    off_ms, on_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead_pct = (on_ms - off_ms) / off_ms * 100.0 if off_ms else 0.0

    register_table(
        "Telemetry overhead: %d-friend query, full stack off vs on"
        " (median of %d reps)" % (N_QUERY_FRIENDS, REPETITIONS),
        ["friends", "bare (ms)", "instrumented (ms)", "overhead"],
        [[N_QUERY_FRIENDS, "%.2f" % off_ms, "%.2f" % on_ms,
          "%+.1f%%" % overhead_pct]],
    )
    _record_bench(
        "overhead",
        {
            "friends": N_QUERY_FRIENDS,
            "repetitions": REPETITIONS,
            "bare_ms": off_ms,
            "instrumented_ms": on_ms,
            "overhead_pct": overhead_pct,
            "limit_pct": OVERHEAD_LIMIT_PCT,
            "scrapes": store.scrapes,
            "events_emitted": events.stats()["emitted"],
        },
    )

    # The pipeline actually observed the workload it was charged for.
    assert store.scrapes == REPETITIONS
    assert "query.personalized:p99" in store.names()
    assert events.stats()["emitted"] >= REPETITIONS
    exemplars = metrics.histogram("query.personalized").exemplars()
    assert exemplars and all(e["trace_id"] is not None for e in exemplars)

    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        "telemetry overhead %.1f%% exceeds %.1f%% at %d friends"
        " (bare %.2fms, instrumented %.2fms)"
        % (overhead_pct, OVERHEAD_LIMIT_PCT, N_QUERY_FRIENDS, off_ms, on_ms)
    )


def _fresh_platform(**overrides) -> MoDisSENSE:
    config = dataclasses.replace(
        PlatformConfig.baseline(
            ClusterConfig(num_nodes=4, regions_per_table=8)
        ),
        **overrides,
    )
    return MoDisSENSE(config)


def _visit_structs(count: int, seed: int):
    """``count`` ingest-ready visits over 400 users / 200 POIs."""
    import random

    rng = random.Random(seed)
    return [
        VisitStruct(
            user_id=rng.randint(1, 400),
            poi_id=rng.randint(1, 200),
            timestamp=rng.randint(1, 1_000_000),
            grade=rng.random(),
            poi_name="Some Place",
            lat=37.9,
            lon=23.7,
            keywords=("food",),
        )
        for _ in range(count)
    ]


def test_profiler_attribution_mixed_load(benchmark):
    """>= 90% of profiler samples carry a component under mixed load."""
    platform = _fresh_platform(
        ingest=IngestConfig(enabled=True, refresh_interval_s=0.0),
        telemetry=TelemetryConfig(
            profiler_enabled=True, profiler_interval_s=0.002
        ),
    )
    rest = RestApi(platform)
    try:
        visits = _visit_structs(2_000, seed=11)

        def mixed_load():
            # Interleave ingest batches (applier threads, registered as
            # "ingest") with REST reads (the handler pushes "rest", and
            # the region scans run in its thread).
            for i, visit in enumerate(visits):
                platform.ingest_visit(visit)
                if i % 50 == 0:
                    rest.handle(
                        "search",
                        {"friend_ids": list(range(1, 200)),
                         "sort_by": "hotness"},
                    )
            platform.ingest.drain(timeout_s=30.0)
            for _ in range(10):
                rest.handle(
                    "search",
                    {"friend_ids": list(range(1, 400)),
                     "sort_by": "hotness"},
                )
            return rest.handle("admin_profile", {})

        out = benchmark.pedantic(mixed_load, rounds=1, iterations=1)
        assert out["status"] == "ok"
        stats = out["data"]["stats"]
        assert stats["samples"] > 0, "profiler took no samples"
        _record_bench(
            "profiler_attribution",
            {
                "samples": stats["samples"],
                "attributed_fraction": stats["attributed_fraction"],
                "by_component": stats["by_component"],
                "minimum": ATTRIBUTION_MIN,
            },
        )
        register_table(
            "Profiler attribution under mixed read+ingest load",
            ["samples", "attributed", "components"],
            [[stats["samples"],
              "%.1f%%" % (stats["attributed_fraction"] * 100.0),
              ", ".join(sorted(stats["by_component"]))]],
        )
        assert stats["attributed_fraction"] >= ATTRIBUTION_MIN, (
            "only %.1f%% of %d samples attributed (by_component=%r)"
            % (stats["attributed_fraction"] * 100.0, stats["samples"],
               stats["by_component"])
        )
    finally:
        platform.shutdown()


def test_ingest_freshness_slo_green_under_load(benchmark):
    """The ingest-freshness SLO stays healthy at PR-5 streaming load."""
    platform = _fresh_platform(
        ingest=IngestConfig(enabled=True, refresh_interval_s=0.0),
        telemetry=TelemetryConfig(profiler_enabled=False),
    )
    try:
        visits = _visit_structs(3_000, seed=12)

        def sustained_ingest():
            tick = 0
            for start in range(0, len(visits), 100):
                for visit in visits[start:start + 100]:
                    platform.ingest_visit(visit)
                # The appliers drain the burst; freshness is measured
                # at the scrape, exactly as the scheduler would.
                platform.ingest.drain(timeout_s=30.0)
                tick += 1
                platform.telemetry.tick(float(tick))
            return platform.telemetry.health()

        health = benchmark.pedantic(sustained_ingest, rounds=1, iterations=1)
        by_name = {s["name"]: s for s in health["slos"]}
        freshness = by_name["ingest_freshness"]
        _record_bench(
            "ingest_freshness_slo",
            {
                "visits": len(visits),
                "state": freshness["state"],
                "fast_burn": freshness["fast_burn"],
                "budget_remaining": freshness["budget_remaining"],
                "overall_state": health["state"],
            },
        )
        assert freshness["state"] == "healthy", freshness
        stats = platform.ingest.stats()
        assert stats["counters"]["applied"] == len(visits)
    finally:
        platform.shutdown()
