"""Frozen accounting for the threshold-algorithm merge.

The merger's work profile — ``rounds``, ``probes``, ``candidates``,
``cells_avoided``, ``pruned_regions``, what every region shipped, and
with them the simulated ``latency_ms`` — is part of the contract: an
optimisation of the merge layer may change how fast the host computes
the answer, never what the simulated cluster is charged for it.  The
literals below were recorded at the commit *before* the shared POI
attribute table and the batched probes landed (the PR 14 chaos-trace
pattern); both changes must reproduce them exactly.
"""

import pytest

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
        (3, 88, 11, 150, 8),
        (16, 14, 17, 13, 15, 15, 13, 15),
        5.560999999999999,
        2.936,
    ),
    ("hotness", False): (
        (19, 312, 39, 197, 6),
        (38, 38, 40, 36, 41, 74, 50, 74),
        5.9704999999999995,
        3.3454999999999995,
    ),
    ("hotness", True): (
        (6, 88, 11, 159, 6),
        (12, 12, 13, 11, 13, 22, 17, 22),
        5.566999999999999,
        2.9419999999999997,
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
                None,
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


def test_prune_token_tripped_mid_batch_still_counts_what_it_emitted():
    """``next_batch`` used to ``return`` on a tripped prune token
    without adding the items already collected to ``emitted``, so they
    reached the merger but never the region's ``shipped`` (the web
    tier's simulated merge cost)."""

    class TripsOnThirdRead(dict):
        reads = 0

        def get(self, poi_id, default=None):
            self.reads += 1
            if self.reads == 3:
                stream.short_circuit()
            return super().get(poi_id, default)

    aggregates = PartialAggregates.from_rows(
        (pid, float(10 - pid), 1, None) for pid in range(1, 9)
    )
    stream = TopKPartialStream(
        region_id=0,
        aggregates=aggregates,
        poi_attrs=TripsOnThirdRead(
            (pid, ("p%d" % pid, 0.0, 0.0, {"x"})) for pid in range(1, 9)
        ),
        top_k=3,
        hotness=False,
        batch=6,
        wanted={"x"},  # filtered: every examined item reads the table
    )
    out = stream.next_batch()
    assert [poi_id for poi_id, _gs, _cnt in out] == [1, 2, 3]
    assert stream.emitted == stream.shipped == 3
    assert stream.pruned and not stream.finished
    assert stream.next_batch() == []
    assert stream.cells_avoided == 5
