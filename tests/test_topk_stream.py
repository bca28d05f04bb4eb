"""The columnar top-k region stream against the per-item walk it replaced.

:class:`ReferenceStream` is the old :class:`TopKPartialStream` kept as a
test oracle: it builds every ``(-key, poi_id, grade_sum, count)`` item,
sorts them all, and walks the order one item at a time, reading the
attribute table and calling :func:`passes_filter` per examined item.

- **Unfiltered**, the columnar stream must be indistinguishable from it
  batch by batch — what it emits, where its cursor stands and what it
  bounds — because the merger's rounds, probes and shipped counts (and
  with them the simulated charges) are functions of exactly that.
- **Filtered**, the region drops the failing POIs before it builds the
  stream (``VisitScanCoprocessor.select``).  The rule: the stream emits,
  batch by batch, exactly the passing items the reference walk over all
  aggregates emits, and its frontier is the next passing item's key —
  never above the reference's (the next examined item's), and still an
  upper bound on every unemitted passing item.

The trap tests pin the ways a faster stream or filter gets this wrong.
"""

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FaultsConfig
from repro.core.faults import FAULT_CORRUPT, HEDGE_ATTEMPT, Fault, FaultInjector
from repro.core.modules import topk
from repro.core.modules.query_answering import SearchQuery, VisitScanCoprocessor
from repro.core.modules.topk import (
    PartialAggregates,
    TopKPartialStream,
)
from repro.core.monitoring import PlatformMetrics
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.errors import QueryCancelled
from repro.geo.bbox import BoundingBox
from repro.hbase.cache import POIAttrTable
from repro.hbase.cancellation import REASON_TOPK_PROOF, CancellationToken
from repro.hbase.coprocessor import CoprocessorContext, CorruptPartial

from .test_topk_oracle import ALL_FRIENDS, BBOXES, Stack, fingerprint

KEYWORDS = ("cafe", "museum", "park")

select = VisitScanCoprocessor.select


def passes_filter(attrs, bbox, wanted):
    """A query's spatial/textual predicate over one attribute row."""
    _name, lat, lon, poi_keywords = attrs
    if bbox is not None and not bbox.contains_coords(lat, lon):
        return False
    return not wanted or not wanted.isdisjoint(poi_keywords)


class ReferenceStream:
    """The per-item stream: full sort up front, one filter call per
    examined item (the behaviour the columnar stream must reproduce)."""

    def __init__(
        self, aggregates, poi_attrs, hotness, batch, bbox=None, wanted=None,
        cells_scanned=0, deadline_token=None,
    ):
        self.aggregates = aggregates
        self.hotness = hotness
        self.batch = max(1, batch)
        if hotness:
            items = [
                (-count, poi_id, grade_sum, count)
                for poi_id, grade_sum, count in aggregates.rows()
            ]
        else:
            items = [
                (-(grade_sum / count), poi_id, grade_sum, count)
                for poi_id, grade_sum, count in aggregates.rows()
            ]
        items.sort()
        self.items = items
        self.poi_attrs = poi_attrs
        self.bbox = bbox
        self.wanted = wanted or set()
        self.cells_scanned = cells_scanned
        self.prune_token = CancellationToken()
        self.deadline_token = deadline_token
        self.cursor = self.emitted = self.skipped = self.cells_decoded = 0
        self.finished = not items

    def frontier(self):
        if self.cursor >= len(self.items):
            return None
        _key, _poi_id, grade_sum, count = self.items[self.cursor]
        return float(count) if self.hotness else grade_sum / count

    def _attrs_for(self, poi_id):
        attrs = self.poi_attrs.get(poi_id)
        if attrs is None:
            attrs = self.poi_attrs[poi_id] = topk.decode_attrs(
                self.poi_attrs.payloads[poi_id]
            )
            self.cells_decoded += 1
        return attrs

    def next_batch(self) -> List[Tuple[int, float, int]]:
        out = []
        items, batch = self.items, self.batch
        bbox, wanted = self.bbox, self.wanted
        filtered = bbox is not None or bool(wanted)
        while len(out) < batch and self.cursor < len(items):
            if self.prune_token.cancelled:
                break
            if self.deadline_token is not None:
                self.deadline_token.checkpoint(
                    self.cells_scanned + self.cursor
                )
            _key, poi_id, grade_sum, count = items[self.cursor]
            self.cursor += 1
            if filtered and not passes_filter(
                self._attrs_for(poi_id), bbox, wanted
            ):
                self.skipped += 1
                continue
            out.append((poi_id, grade_sum, count))
        self.emitted += len(out)
        if self.cursor >= len(items):
            self.finished = True
        return out

    def short_circuit(self):
        self.prune_token.cancel(REASON_TOPK_PROOF)


def raw_payload(poi_id, lat, lon, keywords):
    return VisitsRepository.encode_payload(VisitStruct(
        user_id=1, poi_id=poi_id, timestamp=1, grade=0.0,
        poi_name="p%d" % poi_id, lat=lat, lon=lon, keywords=keywords,
    ))


def attrs_row(poi_id, lat, lon, keywords):
    return ("p%d" % poi_id, lat, lon, frozenset(keywords))


def build(pois):
    """``pois``: ``(poi_id, grade_sum, count, lat, lon, keywords,
    known)`` -> the aggregates and an attribute table holding every
    POI's payload and the rows of the ``known`` POIs only (the rest
    decode from their payloads)."""
    aggregates = PartialAggregates.from_rows(
        (pid, gs, cnt) for pid, gs, cnt, _lat, _lon, _kw, _known in pois
    )
    table = POIAttrTable()
    for pid, _gs, _cnt, lat, lon, kw, known in pois:
        table.payloads[pid] = raw_payload(pid, lat, lon, kw)
        if known:
            table[pid] = attrs_row(pid, lat, lon, kw)
    return aggregates, table


def copy_of(table):
    """Another table with the same rows and payloads."""
    copy = POIAttrTable()
    copy.payloads.update(table.payloads)
    for pid, row in table.items():
        copy[pid] = row
    return copy


def state(stream):
    return (
        stream.cursor, stream.emitted, stream.cells_decoded, stream.finished,
        stream.frontier(),
    )


def run_side_by_side(
    pois, hotness, batch, deadline=None, prune_after=None, cells_scanned=0,
):
    """Drive both unfiltered streams batch by batch and assert they
    never differ; returns the columnar one."""
    aggregates, table = build(pois)

    def token():
        if deadline is None:
            return None
        deadline_ms, cost = deadline
        return CancellationToken(deadline_ms=deadline_ms, cost_per_record_ms=cost)

    ref = ReferenceStream(
        aggregates, copy_of(table), hotness, batch,
        cells_scanned=cells_scanned, deadline_token=token(),
    )
    new = TopKPartialStream(
        region_id=0, aggregates=aggregates, poi_attrs=copy_of(table), top_k=3,
        hotness=hotness, batch=batch, cells_scanned=cells_scanned,
        deadline_token=token(),
    )
    assert new.size == len(ref.items)
    assert state(new) == state(ref)
    for rounds in range(len(pois) + 2):
        if rounds == prune_after:
            ref.short_circuit()
            new.short_circuit()
        outcomes = []
        for stream in (ref, new):
            try:
                outcomes.append(stream.next_batch())
            except QueryCancelled:
                outcomes.append("cancelled")
        assert outcomes[0] == outcomes[1]
        assert state(new) == state(ref)
        assert new.poi_attrs == ref.poi_attrs
        if outcomes[0] in ("cancelled", []):
            break
    assert new.remaining == len(ref.items) - ref.cursor
    return new


def local_key(hotness, grade_sum, count):
    return float(count) if hotness else grade_sum / count


def run_region_filter_side_by_side(
    pois, hotness, batch, bbox=None, wanted=None, prune_after=None,
):
    """The reference walk over *all* aggregates with the per-item
    filter, against the region filter followed by the stream: the same
    batches, and a frontier that is at most the reference's and bounds
    every unemitted passing item.  Returns the stream."""
    wanted = wanted or set()
    aggregates, table = build(pois)
    ref = ReferenceStream(
        aggregates, copy_of(table), hotness, batch, bbox=bbox, wanted=wanted,
    )
    _aggregates, passing_table = build(pois)
    passing, rows, decoded = select(aggregates, passing_table, bbox, wanted)
    # Every row was gathered; the missing ones were decoded, once.
    assert decoded == len(aggregates) - len(table)
    assert set(passing_table) == set(aggregates.counts)
    assert rows == [passing_table[pid] for pid in passing.counts]
    assert list(passing.counts) == [
        pid for pid in aggregates.counts
        if passes_filter(passing_table[pid], bbox, wanted)
    ]
    new = TopKPartialStream(0, passing, passing_table, 3, hotness, batch)
    unemitted = {
        pid: local_key(hotness, gs, cnt) for pid, gs, cnt in passing.rows()
    }
    for rounds in range(len(pois) + 2):
        if rounds == prune_after:
            ref.short_circuit()
            new.short_circuit()
        out = ref.next_batch()
        assert new.next_batch() == out
        for pid, _gs, _cnt in out:
            del unemitted[pid]
        bound, ref_bound = new.frontier(), ref.frontier()
        if unemitted:
            assert bound == max(unemitted.values())
            assert ref_bound is not None and bound <= ref_bound
        else:
            assert bound is None
        if out == []:
            break
    assert new.cells_decoded == 0
    assert new.cells_avoided == len(unemitted)
    return new


#: Tie-heavy by construction: most counts are 1 and few grade sums
#: exist, so long runs of equal keys straddle every batch boundary.
POI_ROWS = st.lists(
    st.tuples(
        st.sampled_from((1, 1, 1, 1, 2, 3, 5)),
        st.sampled_from((1.0, 2.0, 2.5, 4.0, 0.1 + 0.2)),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.frozensets(st.sampled_from(KEYWORDS), max_size=2),
        st.booleans(),
    ),
    max_size=90,
)


def to_pois(rows, poi_ids):
    return [
        (pid, grade * count, count, float(lat), float(lon), kw, known)
        for pid, (count, grade, lat, lon, kw, known) in zip(poi_ids, rows)
    ]


BBOXES_ST = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 4), st.integers(0, 4),
        st.integers(0, 4), st.integers(0, 4),
    ).map(lambda t: BoundingBox(
        float(min(t[0], t[2])), float(min(t[1], t[3])),
        float(max(t[0], t[2])), float(max(t[1], t[3])),
    )),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=POI_ROWS,
    seed=st.randoms(use_true_random=False),
    hotness=st.booleans(),
    batch=st.integers(min_value=1, max_value=64),
    deadline=st.one_of(st.none(), st.tuples(
        st.floats(min_value=0.5, max_value=120.0),
        st.sampled_from((0.25, 1.0, 3.0)),
    )),
    prune_after=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    cells_scanned=st.integers(min_value=0, max_value=20),
)
def test_columnar_stream_equals_per_item_walk(
    rows, seed, hotness, batch, deadline, prune_after, cells_scanned,
):
    poi_ids = seed.sample(range(1, 1000), len(rows))
    run_side_by_side(
        to_pois(rows, poi_ids), hotness, batch, deadline=deadline,
        prune_after=prune_after, cells_scanned=cells_scanned,
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=POI_ROWS,
    seed=st.randoms(use_true_random=False),
    hotness=st.booleans(),
    batch=st.integers(min_value=1, max_value=64),
    bbox=BBOXES_ST,
    wanted=st.sets(st.sampled_from(KEYWORDS + ("bar",)), max_size=2),
    prune_after=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_region_filter_then_stream_emits_what_the_per_item_walk_emits(
    rows, seed, hotness, batch, bbox, wanted, prune_after,
):
    poi_ids = seed.sample(range(1, 1000), len(rows))
    run_region_filter_side_by_side(
        to_pois(rows, poi_ids), hotness, batch, bbox=bbox, wanted=wanted,
        prune_after=prune_after,
    )


@pytest.mark.parametrize("hotness", [False, True])
@pytest.mark.parametrize("batch", [1, 3, 16, 64])
def test_large_streams_order_in_chunks_like_the_full_sort(hotness, batch):
    """Streams far larger than the first chunk: every chunk boundary is
    crossed, with thousands of tied keys at each cut-off."""
    rng = random.Random(batch)
    rows = [
        (
            rng.choice((1, 1, 1, 1, 2, 2, 3, 4)),
            rng.choice((1.0, 2.0, 3.5, 0.1 + 0.2)),
            rng.randint(0, 4), rng.randint(0, 4),
            frozenset(rng.sample(KEYWORDS, rng.randint(0, 2))),
            rng.random() < 0.7,
        )
        for _ in range(2500)
    ]
    pois = to_pois(rows, rng.sample(range(1, 100_000), len(rows)))
    run_side_by_side(pois, hotness, batch)
    run_region_filter_side_by_side(pois, hotness, batch, wanted={"cafe"})


# ---------------------------------------------------------------- traps


def test_trap1_frontier_is_the_next_passing_item():
    """The region drops the rejected items before the stream exists, so
    the frontier jumps over them to the next passing one: a tighter
    bound than the examined order gave, and still sound."""
    pois = [
        # poi, grade_sum, count, lat, lon, keywords, known
        (1, 9.0, 1, 0.0, 0.0, {"cafe"}, True),
        (2, 8.0, 1, 0.0, 0.0, set(), True),  # rejected
        (3, 7.0, 1, 0.0, 0.0, set(), True),  # rejected
        (4, 2.0, 1, 0.0, 0.0, {"cafe"}, True),
    ]
    run_region_filter_side_by_side(
        pois, hotness=False, batch=1, wanted={"cafe"}
    )
    aggregates, table = build(pois)
    passing, _rows, _decoded = select(aggregates, table, None, {"cafe"})
    stream = TopKPartialStream(0, passing, table, 3, hotness=False, batch=1)
    assert stream.size == 2
    assert stream.next_batch() == [(1, 9.0, 1)]
    assert (stream.cursor, stream.frontier()) == (1, 2.0)
    assert stream.next_batch() == [(4, 2.0, 1)]
    assert (stream.cursor, stream.finished) == (2, True)


def test_trap2_a_stream_within_the_first_chunk_is_one_sort_and_no_heap(
    monkeypatch,
):
    """~70 POIs, the size of an interactive search's region partial:
    one ``sorted()`` over the rows, no heap, no second selection pass."""
    calls = {"sorted": [], "heapify": 0}
    real_sorted = sorted

    def counting_sorted(iterable, *args, **kwargs):
        out = real_sorted(iterable, *args, **kwargs)
        calls["sorted"].append(len(out))
        return out

    def counting_heapify(heap):
        calls["heapify"] += 1
        raise AssertionError("a small stream must not build a heap")

    monkeypatch.setattr(topk, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(topk, "heapify", counting_heapify)
    pois = [(pid, 1.0 + pid % 7, 1 + pid % 3, 0.0, 0.0, set(), True)
            for pid in range(1, 71)]
    for hotness in (False, True):
        calls["sorted"].clear()
        aggregates, table = build(pois)
        stream = TopKPartialStream(0, aggregates, table, 10, hotness, 16)
        while stream.next_batch():
            stream.frontier()
        assert calls["sorted"] == [70]
        assert stream.finished and stream.emitted == 70
    assert calls["heapify"] == 0


def test_trap3_the_region_decodes_each_missing_row_once_before_ordering():
    """Cold table: the region filter decodes every row the table lacks,
    once, before the stream orders anything, and the stream decodes
    nothing while it emits.  A warm query over the same POIs decodes 0."""
    pois = [
        (pid, float(100 - pid), 1, 0.0, 0.0,
         {"cafe"} if pid % 3 else set(), pid % 5 == 0)
        for pid in range(1, 41)
    ]
    aggregates, table = build(pois)
    known = len(table)
    passing, _rows, decoded = select(aggregates, table, None, {"cafe"})
    assert decoded == 40 - known and len(table) == 40
    stream = TopKPartialStream(0, passing, table, 3, hotness=False, batch=4)
    assert stream.size == len([p for p in pois if p[0] % 3])
    while stream.next_batch():
        pass
    assert stream.finished and stream.cells_decoded == 0
    _passing, _rows, decoded = select(aggregates, table, None, {"cafe"})
    assert decoded == 0


@pytest.mark.parametrize("wanted", [set(), {"cafe"}])
def test_trap4_a_deadline_cuts_the_batch_at_its_first_failing_position(
    wanted,
):
    """``setup + records x cost >= deadline`` first holds at record 10
    (5 scanned + cursor 5): the cursor stops there, mid-batch, and
    nothing of the cut batch is emitted."""
    pois = [(pid, float(100 - pid), 1, 0.0, 0.0, {"cafe"}, True)
            for pid in range(1, 41)]
    aggregates, table = build(pois)
    passing, _rows, _decoded = select(aggregates, table, None, wanted)
    stream = TopKPartialStream(
        0, passing, table, 3, hotness=False, batch=16, cells_scanned=5,
        deadline_token=CancellationToken(deadline_ms=10.0, cost_per_record_ms=1.0),
    )
    with pytest.raises(QueryCancelled):
        stream.next_batch()
    assert (stream.cursor, stream.emitted) == (5, 0)


# ------------------------------------------------- region filter traps


def visited_pois(stack, friends=ALL_FRIENDS):
    return {
        visit.poi_id
        for friend in friends
        for visit in stack.visits.visits_of_user(friend)
    }


def test_region_filter_trap1_the_scan_cache_stays_per_friend_and_filter_free():
    """The filter runs after the fold: what a filtered query fills is
    every POI of each friend, keyed by friend and window only, so an
    unfiltered or differently filtered query is served from it."""
    stack = Stack(data_seed=8, cache=True)
    filtered = SearchQuery(
        friend_ids=ALL_FRIENDS, limit=3, bbox=BBOXES[1], keywords=("cafe",)
    )
    for _ in range(3):  # opens, fills, hits
        stack.search_topk(filtered)
    entries = {
        key: entry for generation in stack.scan_cache._generations.values()
        for key, entry in generation.entries.items()
    }
    assert sorted(entries) == [(friend, None, None) for friend in ALL_FRIENDS]
    for (friend, _since, _until), entry in entries.items():
        assert set(entry.poi_ids) == visited_pois(stack, (friend,))
    for query in (
        SearchQuery(friend_ids=ALL_FRIENDS, limit=3),
        SearchQuery(friend_ids=ALL_FRIENDS, limit=3, keywords=("museum",)),
    ):
        stack.cluster.scan_cache = None
        want = fingerprint(stack.search_exhaustive(query))
        stack.cluster.scan_cache = stack.scan_cache
        for search in (stack.search_topk, stack.search_exhaustive):
            served = search(query)
            assert (served.cache_hits, served.cache_misses) == (
                len(ALL_FRIENDS), 0
            )
            assert fingerprint(served) == want


@pytest.mark.parametrize("sort_by", ["interest", "hotness"])
def test_region_filter_trap3_a_brownout_truncates_after_the_filter(sort_by):
    """``per_region_limit`` keeps the first passing POIs, never the
    first POIs of which the filter then drops some."""
    stack = Stack(data_seed=10)
    query = SearchQuery(
        friend_ids=ALL_FRIENDS, limit=3, sort_by=sort_by,
        bbox=BBOXES[2], keywords=("cafe",),
    )
    endpoint = VisitScanCoprocessor()
    full = stack.qa._route_query(query, per_region_limit=10 ** 6)
    cut = stack.qa._route_query(query, per_region_limit=4)
    for region, request in cut.items():
        assert request.topk_batch == 0
        drained = endpoint.run(CoprocessorContext(region), full[region])
        everything = list(drained.drain())
        shipped = list(
            endpoint.run(CoprocessorContext(region), request).drain()
        )
        assert shipped == everything[:4]
        assert len(shipped) == min(4, len(everything))
        for pid, _gs, _cnt in everything:
            _name, lat, lon, _kw = drained.poi_attrs[pid]
            assert BBOXES[2].contains_coords(lat, lon)


def test_region_filter_trap4_deadline_positions_count_passing_items_only():
    """Three of every four POIs fail the filter.  The deadline first
    blows at record 10 = 5 scanned + position 5, and position 5 is the
    sixth *passing* item: the cut lands there, mid-batch, with nothing
    of the batch emitted and the frontier on that item's key."""
    pois = [
        (pid, float(100 - pid), 1, 0.0, 0.0,
         {"cafe"} if pid % 4 == 0 else set(), pid % 2 == 0)
        for pid in range(1, 41)
    ]
    aggregates, table = build(pois)
    passing, _rows, _decoded = select(aggregates, table, None, {"cafe"})
    stream = TopKPartialStream(
        0, passing, table, 3, hotness=False, batch=16, cells_scanned=5,
        deadline_token=CancellationToken(deadline_ms=10.0, cost_per_record_ms=1.0),
    )
    with pytest.raises(QueryCancelled):
        stream.next_batch()
    assert (stream.cursor, stream.emitted) == (5, 0)
    assert stream.frontier() == 100.0 - 24  # poi 24: the sixth passing


# ------------------------------------------------------------- brownout


@pytest.mark.parametrize("sort_by", ["interest", "hotness"])
def test_brownout_truncation_keeps_the_highest_local_keys(sort_by):
    """A brownout's ``per_region_limit`` keeps each region's first POIs
    in the order a stream would emit them, ``(-key, poi_id)`` with the
    request's local key (count for hotness, local mean for interest),
    not the largest grade sums."""
    stack = Stack(data_seed=14)
    query = SearchQuery(friend_ids=ALL_FRIENDS, limit=3, sort_by=sort_by)
    hotness = sort_by == "hotness"
    endpoint = VisitScanCoprocessor()
    full = stack.qa._route_query(query, per_region_limit=10 ** 6)
    for region, request in stack.qa._route_query(
        query, per_region_limit=5
    ).items():
        everything = list(
            endpoint.run(CoprocessorContext(region), full[region]).drain()
        )
        want = sorted(
            everything,
            key=lambda row: (-local_key(hotness, row[1], row[2]), row[0]),
        )
        assert everything == want
        shipped = endpoint.run(CoprocessorContext(region), request)
        assert list(shipped.drain()) == want[:5]


# ------------------------------------------------------- validate_partial


def test_validate_partial_checks_the_columns_of_an_unstarted_stream():
    endpoint = VisitScanCoprocessor()

    def fresh():
        aggregates, table = build(
            [(pid, 1.0, 1, 0.0, 0.0, set(), True) for pid in range(1, 6)]
        )
        return TopKPartialStream(0, aggregates, table, 3, False, 2)

    assert endpoint.validate_partial(fresh())
    assert not endpoint.validate_partial(CorruptPartial(fresh()))
    # Streams only: the retired list of 6-tuples is rejected.
    assert not endpoint.validate_partial([(1, 1.0, 1, "poi-1", 0.0, 0.0)])
    started = fresh()
    started.next_batch()
    assert not endpoint.validate_partial(started)
    torn = fresh()
    del torn.aggregates.grade_sums[3]
    assert not endpoint.validate_partial(torn)


@pytest.mark.parametrize("hedge", [False, True])
def test_a_corrupt_stream_goes_through_retry_or_hedge(hedge):
    """Every region's first attempt (or, with ``hedge``, every primary
    attempt) ships the injector's corruption marker instead of its
    stream: the fan-out rejects it and the answer stays exact."""
    class CorruptsPrimaries(FaultInjector):
        def decide(self, region_id, node_id, attempt):
            if attempt == 0 or (hedge and attempt != HEDGE_ATTEMPT):
                return Fault(FAULT_CORRUPT)
            return None

    query = SearchQuery(friend_ids=ALL_FRIENDS, limit=5, keywords=("cafe",))
    want = fingerprint(Stack(data_seed=12).search_topk(query))
    config = FaultsConfig(enabled=True, max_retries=1)
    stack = Stack(
        data_seed=12, faults_config=config, injector=CorruptsPrimaries(config)
    )
    metrics = PlatformMetrics()
    stack.cluster.metrics = metrics
    result = stack.search_topk(query)
    assert not result.degraded and result.coverage == 1.0
    assert fingerprint(result) == want
    assert metrics.counter("fanout.retries") >= 1
    if hedge:
        assert metrics.counter("fanout.hedges") >= 1
