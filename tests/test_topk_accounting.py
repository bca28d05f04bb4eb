"""Frozen accounting for the threshold-algorithm merge.

The merger's work profile — ``rounds``, ``probes``, ``candidates``,
``cells_avoided``, ``pruned_regions``, what every region shipped, and
with them the simulated ``latency_ms`` — is part of the contract: an
optimisation of the merge layer may change how fast the host computes
the answer, never what the simulated cluster is charged for it.  The
unfiltered literals below were recorded at the commit *before* the
shared POI attribute table and the batched probes landed (the
chaos-trace pattern); both changes reproduce them exactly.

The two filtered entries were re-derived when the bbox/keyword filter
moved into the region, by one rule: a filtered stream emits, batch by
batch, exactly the passing items the old per-item walk emitted, and its
frontier is the next *passing* item's key (``tests/test_topk_stream.py``
proves the rule).  A filtered merge may therefore prune sooner: shipped
counts, ``cells_avoided`` (now: passing aggregates never emitted) and
latency can only fall, and the answer is unchanged.
"""

import pytest

from benchmarks._workload import drain
from repro.core.modules.query_answering import (
    SearchQuery,
    VisitScanCoprocessor,
)
from repro.core.modules.topk import PartialAggregates, TopKPartialStream
from repro.hbase.cancellation import CancellationToken

from .test_topk_oracle import ALL_FRIENDS, BBOXES, Stack

STAT_KEYS = ("rounds", "probes", "candidates", "cells_avoided", "pruned_regions")


def account(stack, query):
    """``(merger stats, shipped per region, simulated latency)``."""
    report = stack.qa.explain_personalized(query)
    return (
        tuple(report["topk"][key] for key in STAT_KEYS),
        tuple(r["results_returned"] for r in report["regions"]),
        report["latency_ms"],
    )


def query_for(sort_by, filtered):
    return SearchQuery(
        friend_ids=ALL_FRIENDS,
        sort_by=sort_by,
        limit=3,
        bbox=BBOXES[1] if filtered else None,
        keywords=("cafe",) if filtered else (),
    )


#: (sort_by, filtered) -> ``(STAT_KEYS values, shipped per region,
#: latency_ms scanning, latency_ms off a warm scan cache)``.
FROZEN = {
    ("interest", False): (
        (8, 288, 36, 201, 8),
        (45, 50, 51, 44, 44, 47, 42, 41),
        5.93,
        3.3049999999999997,
    ),
    ("interest", True): (
        (3, 88, 11, 48, 8),
        (16, 14, 17, 13, 13, 15, 13, 15),
        5.557999999999999,
        2.933,
    ),
    ("hotness", False): (
        (19, 312, 39, 197, 6),
        (38, 38, 40, 36, 41, 74, 50, 74),
        5.9704999999999995,
        3.3454999999999995,
    ),
    ("hotness", True): (
        (6, 88, 11, 55, 7),
        (12, 12, 13, 11, 13, 13, 13, 22),
        5.5474999999999985,
        2.9225,
    ),
}

CASES = [
    (sort_by, filtered)
    for sort_by in ("interest", "hotness")
    for filtered in (False, True)
]


@pytest.mark.parametrize("sort_by,filtered", CASES)
def test_merge_accounting_is_frozen(sort_by, filtered):
    """Cache off, cold (the query that opens the generations) and warm
    (the third query: served from cached partials) are charged the same
    merge; only the scan's share of the latency differs."""
    query = query_for(sort_by, filtered)
    stats, shipped, scanning_ms, warm_ms = FROZEN[(sort_by, filtered)]
    assert account(Stack(data_seed=11, batch_size=2), query) == (
        stats, shipped, scanning_ms
    )
    cached = Stack(data_seed=11, cache=True, batch_size=2)
    assert account(cached, query) == (stats, shipped, scanning_ms)
    account(cached, query)  # fills the opened generations
    assert account(cached, query) == (stats, shipped, warm_ms)


def exhaustive_account(stack, query, per_region_limit):
    """``(shipped per region, simulated latency)`` of one call of a
    draining ``stack`` (see ``drain``); a positive ``per_region_limit``
    is a brownout's cap, routed the way ``cli.py figure2`` drives the
    fan-out."""
    qa = stack.qa
    call = stack.cluster.coprocessor_exec_routed(
        stack.visits.table.name,
        qa._coprocessor,
        [qa._route_query(query, per_region_limit=per_region_limit)],
        route_items=[len(query.friend_ids)],
    )[0]
    return (
        tuple(
            call.per_region_results[rid]
            for rid in sorted(call.per_region_records)
        ),
        call.latency_ms,
    )


#: (sort_by, filtered, per_region_limit) -> ``(shipped per region,
#: latency_ms scanning, latency_ms off a warm scan cache)`` of the
#: exhaustive request.  Recorded while the exhaustive path still shipped lists of
#: ``(poi_id, grade_sum, count, name, lat, lon)``; the drained streams
#: that replaced them are charged exactly the same.
FROZEN_EXHAUSTIVE = {
    ("interest", False, 0): (
        (37, 37, 39, 35, 40, 37, 35, 37),
        5.829499999999999,
        3.2045,
    ),
    ("interest", False, 4): (
        (4, 4, 4, 4, 4, 4, 4, 4),
        5.4319999999999995,
        2.8069999999999995,
    ),
    ("interest", False, 10): (
        (10, 10, 10, 10, 10, 10, 10, 10),
        5.504,
        2.8789999999999996,
    ),
    ("interest", True, 0): (
        (10, 10, 11, 9, 11, 11, 9, 11),
        5.506999999999999,
        2.8819999999999997,
    ),
    ("interest", True, 4): (
        (4, 4, 4, 4, 4, 4, 4, 4),
        5.4319999999999995,
        2.8069999999999995,
    ),
    ("interest", True, 10): (
        (10, 10, 10, 9, 10, 10, 9, 10),
        5.500999999999999,
        2.8759999999999994,
    ),
    ("hotness", False, 0): (
        (37, 37, 39, 35, 40, 37, 35, 37),
        5.829499999999999,
        3.2045,
    ),
    ("hotness", False, 4): (
        (4, 4, 4, 4, 4, 4, 4, 4),
        5.4319999999999995,
        2.8069999999999995,
    ),
    ("hotness", False, 10): (
        (10, 10, 10, 10, 10, 10, 10, 10),
        5.504,
        2.8789999999999996,
    ),
    ("hotness", True, 0): (
        (10, 10, 11, 9, 11, 11, 9, 11),
        5.506999999999999,
        2.8819999999999997,
    ),
    ("hotness", True, 4): (
        (4, 4, 4, 4, 4, 4, 4, 4),
        5.4319999999999995,
        2.8069999999999995,
    ),
    ("hotness", True, 10): (
        (10, 10, 10, 9, 10, 10, 9, 10),
        5.500999999999999,
        2.8759999999999994,
    ),
}

EXHAUSTIVE_CASES = [
    (sort_by, filtered, cap)
    for sort_by in ("interest", "hotness")
    for filtered in (False, True)
    for cap in (0, 4, 10)
]


@pytest.mark.parametrize("sort_by,filtered,cap", EXHAUSTIVE_CASES)
def test_exhaustive_accounting_is_frozen(sort_by, filtered, cap):
    query = query_for(sort_by, filtered)
    shipped, scanning_ms, warm_ms = FROZEN_EXHAUSTIVE[(sort_by, filtered, cap)]
    stack = Stack(data_seed=11)
    drain(stack.qa)
    assert exhaustive_account(stack, query, cap) == (shipped, scanning_ms)
    cached = Stack(data_seed=11, cache=True)
    drain(cached.qa)
    assert exhaustive_account(cached, query, cap) == (shipped, scanning_ms)
    exhaustive_account(cached, query, cap)  # fills the opened generations
    assert exhaustive_account(cached, query, cap) == (shipped, warm_ms)


def deadline_streams():
    """Three regions over overlapping POI ranges; region 1's deadline
    token (1 ms per record, 5 ms budget) trips at its 6th emission
    checkpoint — mid-batch, in the merge's second round."""
    streams = []
    for region_id in range(3):
        aggregates = PartialAggregates.from_rows(
            (
                pid,
                float((pid * (7 + region_id)) % 41) + 1.0,
                1 + (pid + region_id) % 3,
            )
            for pid in range(1 + 5 * region_id, 31 + 5 * region_id)
        )
        streams.append(
            TopKPartialStream(
                region_id=region_id,
                aggregates=aggregates,
                poi_attrs={
                    p: ("p%d" % p, 0.0, 0.0, ()) for p in aggregates.counts
                },
                top_k=20,
                hotness=False,
                batch=4,
                deadline_token=(
                    CancellationToken(deadline_ms=5.0, cost_per_record_ms=1.0)
                    if region_id == 1
                    else None
                ),
            )
        )
    return streams


#: ``(STAT_KEYS values, aborted regions, per stream (emitted,
#: probe_hits, shipped, cursor), merged (poi_id, grade_sum, count))``.
FROZEN_DEADLINE = (
    (2, 45, 15, 73, 0),
    [0, 1, 2],
    [(8, 12, 20, 8), (4, 13, 17, 5), (4, 13, 17, 4)],
    [
        (40, 33.0, 1), (3, 22.0, 1), (35, 64.0, 3), (9, 55.0, 3),
        (29, 84.0, 6), (22, 80.0, 6), (27, 77.0, 6), (15, 76.0, 6),
        (20, 73.0, 6), (13, 69.0, 6), (28, 60.0, 6), (16, 59.0, 6),
        (21, 56.0, 6), (31, 37.0, 4), (14, 52.0, 6),
    ],
)


def test_deadline_abort_mid_round_accounting_is_frozen():
    streams = deadline_streams()
    merged, stats = VisitScanCoprocessor().stream_merge(streams)
    got = (
        tuple(stats[key] for key in STAT_KEYS),
        stats["aborted_regions"],
        [(s.emitted, s.probe_hits, s.shipped, s.cursor) for s in streams],
        [row[:3] for row in merged],
    )
    assert got == FROZEN_DEADLINE


def test_every_item_handed_to_the_merger_counts_in_emitted_and_shipped(
    monkeypatch,
):
    """Whatever stops a stream — a deadline mid-round or the merger's
    proof — each item ``next_batch`` handed over is in its ``emitted``,
    and ``shipped`` (the web tier's simulated merge cost) is emitted
    plus probe answers."""
    handed = {}
    real_next_batch = TopKPartialStream.next_batch

    def counting_next_batch(stream):
        out = real_next_batch(stream)
        handed[id(stream)] = handed.get(id(stream), 0) + len(out)
        return out

    monkeypatch.setattr(TopKPartialStream, "next_batch", counting_next_batch)
    by_deadline = deadline_streams()
    by_proof = deadline_streams()
    for stream in by_proof:
        stream.deadline_token = None
        stream.top_k = 3
    _merged, stats = VisitScanCoprocessor().stream_merge(by_deadline)
    assert stats["aborted_regions"]
    _merged, stats = VisitScanCoprocessor().stream_merge(by_proof)
    assert stats["pruned_regions"] > 0 and not stats["aborted_regions"]
    for stream in by_deadline + by_proof:
        assert handed.get(id(stream), 0) == stream.emitted
        assert stream.shipped == stream.emitted + stream.probe_hits
        assert stream.cells_avoided == stream.size - stream.cursor
