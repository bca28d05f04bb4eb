"""Tracing overhead — the span layer must be invisible in Figure 2.

Tracing defaults to ON (``TracingConfig.enabled``), so this bench is
the guard that keeps that default honest: it replays the Figure-2 smoke
workload through two query modules over the *same* repositories — one
with tracing enabled, one with the null tracer — and fails if the
traced medians exceed the untraced ones by more than
``REPRO_TRACE_OVERHEAD_PCT`` (default 10) percent on the largest friend
count.  It also asserts the two paths return identical answers, the
"byte-identical results" half of the tracing contract.

Repetitions alternate traced/untraced so ambient machine noise (turbo
states, page cache) hits both sides equally.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core import SearchQuery
from repro.core.modules.query_answering import QueryAnsweringModule
from repro.core.tracing import NULL_TRACER, Tracer

from ._report import register_table
from ._workload import NUM_USERS, friend_sample

#: Same axis as Figure 2 (truncated at smoke scale).
FRIEND_COUNTS = tuple(
    f for f in (500, 2000, 3500, 5000, 6500, 8000, 9500) if f < NUM_USERS
) or (NUM_USERS // 4, NUM_USERS // 2)
REPETITIONS = max(5, int(os.environ.get("REPRO_BENCH_REPETITIONS", 10)))
OVERHEAD_LIMIT_PCT = float(os.environ.get("REPRO_TRACE_OVERHEAD_PCT", 10.0))


def _wall_ms(qa, query):
    t0 = time.perf_counter()
    result = qa.search(query)
    return (time.perf_counter() - t0) * 1e3, result


def test_tracing_overhead_under_limit(bench_platform, benchmark):
    # Two modules over the same repositories: the only difference is the
    # tracer.  A big ring buffer keeps eviction out of the measurement.
    traced_qa = QueryAnsweringModule(
        bench_platform.poi_repository,
        bench_platform.visits_repository,
        tracer=Tracer(max_traces=max(64, REPETITIONS * len(FRIEND_COUNTS))),
    )
    untraced_qa = QueryAnsweringModule(
        bench_platform.poi_repository,
        bench_platform.visits_repository,
        tracer=NULL_TRACER,
    )

    def measure():
        series = {}
        for friends in FRIEND_COUNTS:
            query = SearchQuery(
                friend_ids=friend_sample(friends, seed=4000 + friends),
                sort_by="interest",
                limit=10,
            )
            # Warm both paths (code caches, page cache).
            untraced_qa.search(query)
            traced_qa.search(query)
            traced, untraced = [], []
            for _ in range(REPETITIONS):
                ms_off, r_off = _wall_ms(untraced_qa, query)
                ms_on, r_on = _wall_ms(traced_qa, query)
                untraced.append(ms_off)
                traced.append(ms_on)
                # Identical answers, traced or not.
                assert [
                    (p.poi_id, p.score, p.visit_count) for p in r_on.pois
                ] == [(p.poi_id, p.score, p.visit_count) for p in r_off.pois]
                assert r_on.latency_ms == r_off.latency_ms
                assert r_on.records_scanned == r_off.records_scanned
            series[friends] = (
                statistics.median(untraced),
                statistics.median(traced),
            )
        return series

    series = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for friends in FRIEND_COUNTS:
        off_ms, on_ms = series[friends]
        overhead = (on_ms - off_ms) / off_ms * 100.0 if off_ms else 0.0
        rows.append([
            friends, "%.2f" % off_ms, "%.2f" % on_ms, "%+.1f%%" % overhead,
        ])
    register_table(
        "Tracing overhead: wall-clock per query, tracing off vs on"
        " (median of %d reps)" % REPETITIONS,
        ["friends", "untraced (ms)", "traced (ms)", "overhead"],
        rows,
    )
    benchmark.extra_info["series"] = {
        str(f): {"untraced_ms": off, "traced_ms": on}
        for f, (off, on) in series.items()
    }

    # Every traced query produced a retrievable span tree.
    last = traced_qa.tracer.last_trace()
    assert last is not None and last["root"]["name"] == "query.personalized"
    assert len(last["stages"]) >= 4

    # The gate: on the largest friend count (the paper's worst case and
    # the most span-heavy fan-out) the overhead stays under the limit.
    largest = FRIEND_COUNTS[-1]
    off_ms, on_ms = series[largest]
    overhead_pct = (on_ms - off_ms) / off_ms * 100.0
    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        "tracing overhead %.1f%% exceeds %.1f%% at %d friends"
        " (untraced %.2fms, traced %.2fms)"
        % (overhead_pct, OVERHEAD_LIMIT_PCT, largest, off_ms, on_ms)
    )
