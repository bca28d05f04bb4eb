"""Work guard for the top-k region streams (counts, not timings).

A region stream orders only what the merger reads, and the region
filter evaluates a query's predicate once per invocation over columns,
before any stream exists.  Bringing back the full sort of every
per-region POI, or a per-item Python predicate, keeps every answer and
every simulated charge right — the oracle, property and accounting
suites stay green — so the work itself is counted here: what
``sorted()`` is handed, and how many Python-level calls the filter
makes.
"""

import random
import sys

import pytest

from repro.core.modules import topk
from repro.core.modules.query_answering import VisitScanCoprocessor
from repro.core.modules.topk import (
    CHUNK_BATCHES,
    PartialAggregates,
    TopKMerger,
    TopKPartialStream,
)
from repro.geo.bbox import BoundingBox
from repro.hbase.cache import POIAttrTable

REGIONS = 8
POIS_PER_REGION = 2000
BATCH = 4


def region_streams(hotness, bbox=None, wanted=None, seed=3):
    """Eight regions of 2000 POIs each over one shared id space, with
    a full attribute table: a k=10 merge prunes them within a few
    rounds.  A filtered query's regions keep only their passing POIs
    (``VisitScanCoprocessor.select``, its Python-level calls counted
    into ``python_calls``)."""
    rng = random.Random(seed)
    table = POIAttrTable()
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
        if bbox is not None or wanted:
            aggregates, _rows, decoded = select_counting_calls(
                aggregates, table, bbox, wanted or set()
            )
            assert decoded == 0
        streams.append(TopKPartialStream(
            region_id, aggregates, table, 10, hotness, BATCH,
        ))
    return streams


#: Python-level function calls the region filter made, per invocation.
python_calls = []


def select_counting_calls(*args):
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        return VisitScanCoprocessor.select(*args)
    finally:
        sys.setprofile(None)
        python_calls.append(calls)


@pytest.fixture
def sorted_sizes(monkeypatch):
    """The length of every list of ``(-key, poi_id, grade_sum, count)``
    items the stream module's ``sorted()`` built (not the merger's final
    ranking)."""
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
    sorted_sizes, hotness
):
    """The region filter tests its 2000 rows column by column: a
    handful of Python-level calls per invocation, none per item.  The
    streams then order only passing items."""
    python_calls.clear()
    bbox = BoundingBox(2.0, 1.0, 7.0, 5.0)
    streams = region_streams(hotness, bbox=bbox, wanted={"cafe"})
    assert len(python_calls) == REGIONS
    assert max(python_calls) < 20
    _merged, stats = TopKMerger(k=10, hotness=hotness).merge(streams)
    assert stats["rounds"] >= 1 and stats["cells_decoded"] == 0
    # Only the passing items are ordered: about 6/10 x 5/7 x 2/3 of
    # the lats, lons and keywords, so well under half of them.
    ordered = sum(sorted_sizes)
    assert ordered == sum(len(s.items) for s in streams)
    assert sum(s.size for s in streams) < REGIONS * POIS_PER_REGION // 2
    for stream in streams:
        for _negkey, pid, _gs, _cnt in stream.items:
            _name, lat, lon, keywords = stream.poi_attrs[pid]
            assert bbox.contains_coords(lat, lon) and "cafe" in keywords
