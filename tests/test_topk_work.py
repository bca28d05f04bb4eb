"""Work guard for the top-k region streams (counts, not timings).

A region stream orders only what the merger reads, and a filtered one
evaluates its predicate once per stream over columns.  Bringing back
the full sort of every per-region POI, or the per-item filter walk,
keeps every answer and every simulated charge right — the oracle,
property and accounting suites stay green — so the work itself is
counted here: what ``sorted()`` is handed, and how often the Python
predicate runs.
"""

import random

import pytest

from repro.core.modules import topk
from repro.core.modules.topk import (
    CHUNK_BATCHES,
    PartialAggregates,
    TopKMerger,
    TopKPartialStream,
)
from repro.geo.bbox import BoundingBox

REGIONS = 8
POIS_PER_REGION = 2000
BATCH = 4


def region_streams(hotness, bbox=None, wanted=None, seed=3):
    """Eight regions of 2000 POIs each over one shared id space, with
    a full attribute table: a k=10 merge prunes them within a few
    rounds."""
    rng = random.Random(seed)
    table = {}
    streams = []
    for region_id in range(REGIONS):
        aggregates = PartialAggregates()
        for pid in rng.sample(range(1, 20_000), POIS_PER_REGION):
            count = max(1, int(rng.paretovariate(1.1)))
            aggregates.add(
                pid, sum(rng.uniform(0.0, 5.0) for _ in range(count)), count
            )
            table[pid] = (
                "p%d" % pid, float(pid % 10), float(pid % 7),
                frozenset({"cafe"} if pid % 3 else {"park"}),
            )
        streams.append(TopKPartialStream(
            region_id, aggregates, table, 10, hotness, BATCH,
            bbox=bbox, wanted=wanted,
        ))
    return streams


@pytest.fixture
def sorted_sizes(monkeypatch):
    """The length of every list of ``(-key, poi_id, grade_sum, count)``
    items the stream module's ``sorted()`` built (not the merger's final
    ranking, nor a filtered stream's sorted copy of its key column)."""
    sizes = []

    def counting_sorted(iterable, *args, **kwargs):
        out = sorted(iterable, *args, **kwargs)
        if out and isinstance(out[0], tuple) and len(out[0]) == 4:
            sizes.append(len(out))
        return out

    monkeypatch.setattr(topk, "sorted", counting_sorted, raising=False)
    return sizes


def test_an_unfiltered_merge_orders_what_it_reads_not_every_poi(sorted_sizes):
    streams = region_streams(hotness=False)
    _merged, stats = TopKMerger(k=10, hotness=False).merge(streams)
    total = REGIONS * POIS_PER_REGION
    emitted = sum(s.emitted for s in streams)
    assert 1 < stats["rounds"] and stats["pruned_regions"] == REGIONS
    ordered = sum(sorted_sizes)
    assert ordered == sum(len(s.items) for s in streams)
    for stream in streams:
        # A first chunk, then doubling: never more than twice what the
        # cursor reached (local means are nearly all distinct, so ties
        # at a cut-off add nothing here).
        assert len(stream.items) <= max(
            CHUNK_BATCHES * BATCH + 1, 2 * (stream.cursor + 1)
        )
    # Within the first chunk: what the merger read, in batches, rounded
    # up to CHUNK_BATCHES of them; the full sort took all 16000.
    assert ordered <= CHUNK_BATCHES * emitted
    assert ordered <= total // 10


@pytest.mark.parametrize("hotness", [False, True])
def test_a_filtered_stream_makes_no_per_item_predicate_call(
    monkeypatch, sorted_sizes, hotness
):
    calls = []
    real = topk.passes_filter

    def counting_passes_filter(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(topk, "passes_filter", counting_passes_filter)
    streams = region_streams(
        hotness, bbox=BoundingBox(2.0, 1.0, 7.0, 5.0), wanted={"cafe"}
    )
    _merged, stats = TopKMerger(k=10, hotness=hotness).merge(streams)
    assert stats["rounds"] >= 1 and stats["cells_decoded"] == 0
    assert calls == []
    # Only the passing items are ordered: about 6/10 x 5/7 x 2/3 of
    # the lats, lons and keywords, so well under half of them.
    ordered = sum(sorted_sizes)
    assert ordered == sum(len(s.items) for s in streams)
    assert ordered < REGIONS * POIS_PER_REGION // 2
