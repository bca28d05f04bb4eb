"""The cluster's one POI attribute table (``RegionScanCache.poi_attrs``).

Replicated POI attributes are per-POI constants, so a payload parsed by
any region invocation, in either coprocessor mode, serves every region
and query after it: ``cells_decoded`` is bounded by the distinct POIs a
query examines, not by regions x POIs, and repeats cost nothing.  The
table's keyword index (``by_keyword``), which the region filter tests
membership in, equals the row test after every insert and overwrite,
also while other threads write.  A table is never emptied: a clear or
an overflow binds a fresh one and drops every generation, so a query
whose regions looked up the old table still finds every winner's row.
"""

import json
import random
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro import MoDisSENSE, RestApi
from repro.config import FaultsConfig, PlatformConfig
from repro.core.faults import FaultInjector
from repro.core.modules.query_answering import SearchQuery
from repro.core.modules.topk import PartialAggregates, TopKMerger
from repro.core.repositories.visits import FAMILY, VisitsRepository
from repro.datagen import generate_pois, generate_visits
from repro.errors import DegradedResultWarning
from repro.geo.bbox import BoundingBox
from repro.hbase import RegionScanCache
from repro.hbase.cache import POIAttrTable
from repro.hbase.region import Region

from .test_topk_oracle import (
    ALL_FRIENDS,
    BBOXES,
    NUM_POIS,
    NUM_REGIONS,
    POIS,
    Stack,
    fingerprint,
)
from .test_topk_stream import attrs_row, passes_filter, raw_payload, select

#: 13 of the 40 POIs are museums and k exceeds that, so the merger never
#: has k candidates, never prunes, and every region examines (and needs
#: the attribute row of) every POI it aggregated.
EXAMINE_ALL = SearchQuery(
    friend_ids=ALL_FRIENDS, limit=25, keywords=("museum",)
)


def cache_off(stack, search, query):
    stack.cluster.scan_cache = None
    try:
        return search(query)
    finally:
        stack.cluster.scan_cache = stack.scan_cache


class TestDecodeOnce:
    def test_filtered_topk_decodes_per_poi_not_per_region(self):
        stack = Stack(data_seed=5, cache=True)
        table = stack.scan_cache.poi_attrs
        want = fingerprint(
            cache_off(stack, stack.search_exhaustive, EXAMINE_ALL)
        )
        report = stack.qa.explain_personalized(EXAMINE_ALL)
        assert len(report["regions"]) == NUM_REGIONS
        assert report["topk"]["cells_avoided"] == 0  # examined them all
        # One parse per distinct POI (the parent paid one per region).
        assert report["cells_decoded"] == len(table) == NUM_POIS
        assert table[3] == ("poi-3", POIS[3][1], POIS[3][2],
                            frozenset({"museum", "history"}))
        first = stack.search_topk(EXAMINE_ALL)
        assert fingerprint(first) == want
        assert first.cells_decoded == 0

    def test_a_different_filter_over_the_same_friends_decodes_nothing(self):
        stack = Stack(data_seed=5, cache=True)
        stack.search_topk(EXAMINE_ALL)
        for sort_by in ("interest", "hotness"):
            other = SearchQuery(
                friend_ids=ALL_FRIENDS, limit=5, sort_by=sort_by,
                bbox=BBOXES[2], keywords=("cafe",),
            )
            want = fingerprint(
                cache_off(stack, stack.search_exhaustive, other)
            )
            served = stack.search_topk(other)
            assert served.cells_decoded == 0
            assert fingerprint(served) == want

    @pytest.mark.parametrize("filler", ["exhaustive", "topk"])
    def test_either_mode_fills_the_table_for_the_other(self, filler):
        stack = Stack(data_seed=6, cache=True)
        fill, read = (
            (stack.search_exhaustive, stack.search_topk)
            if filler == "exhaustive"
            else (stack.search_topk, stack.search_exhaustive)
        )
        want = fingerprint(cache_off(stack, read, EXAMINE_ALL))
        filled = fill(EXAMINE_ALL)
        assert filled.cells_decoded == NUM_POIS
        served = read(EXAMINE_ALL)
        assert served.cells_decoded == 0
        assert fingerprint(served) == want

    def test_cache_off_invocations_use_a_table_of_their_own(self):
        """No cache object, no shared table: every region parses what it
        examines, as before."""
        stack = Stack(data_seed=5)
        first = stack.search_topk(EXAMINE_ALL)
        again = stack.search_topk(EXAMINE_ALL)
        assert first.cells_decoded == again.cells_decoded > NUM_POIS


OWNER = VisitsRepository.user_of_row


class TestClearAndBound:
    def test_clear_empties_the_table(self):
        stack = Stack(data_seed=5, cache=True)
        stack.search_topk(EXAMINE_ALL)
        assert stack.scan_cache.stats()["poi_attrs"] == NUM_POIS
        held = stack.scan_cache.poi_attrs
        stack.scan_cache.clear()
        assert len(stack.scan_cache.poi_attrs) == 0
        assert stack.scan_cache.poi_attrs.payloads == {}
        assert stack.scan_cache.stats()["poi_attrs"] == 0
        # A fresh table was bound: the old one is left whole.
        assert len(held) == len(held.payloads) == NUM_POIS
        assert stack.search_topk(EXAMINE_ALL).cells_decoded == NUM_POIS

    def test_bound_holds_under_ten_times_max_entries_pois(self):
        """Scans record payloads without the cache lock; the first
        lookup that finds ``max_entries`` of them binds a fresh table
        and drops every generation, the looking-up region's too."""
        cache = RegionScanCache(max_entries=4)
        region = Region([FAMILY])
        replaced = []
        for poi_id in range(40):
            table = cache.poi_attrs
            table.payloads[poi_id] = b"payload"  # a scan met the POI
            generation = cache.lookup(region, OWNER)
            assert len(cache.poi_attrs.payloads) < 4
            if cache.poi_attrs is not table:
                replaced.append(table)
                assert generation is None
                assert len(table.payloads) == 4  # left whole
        assert len(replaced) == 10

    def test_a_full_table_never_changes_the_answer(self):
        stack = Stack(data_seed=5, cache=True)
        small = RegionScanCache(max_entries=NUM_POIS // 10)
        stack.scan_cache = small
        stack.cluster.scan_cache = small
        want = fingerprint(
            cache_off(stack, stack.search_exhaustive, EXAMINE_ALL)
        )
        tables = set()
        for search in (stack.search_topk, stack.search_exhaustive) * 2:
            assert fingerprint(search(EXAMINE_ALL)) == want
            tables.add(id(small.poi_attrs))
            # Replaced at a lookup once full: the bound plus what the
            # invocations after that lookup recorded.
            assert len(small.poi_attrs.payloads) < NUM_POIS // 10 + NUM_POIS
        assert len(tables) > 1


#: The small platform's POI count, and the friends its queries name.
LIFETIME_POIS = 300
LIFETIME_FRIENDS = tuple(range(1, 41))


class TestTableLifetime:
    """The table a region looked up stays whole until the query is
    done, whatever replaces the cache's binding meanwhile: every POI the
    regions aggregated, cached or scanned, keeps its payload and its
    row, so the merger's fetch of the winners' rows never misses."""

    @pytest.mark.parametrize(
        "keywords", [(), ("cafe",)], ids=["unfiltered", "cafe"]
    )
    @pytest.mark.parametrize("event", ["clear", "overflow"])
    def test_winners_get_their_rows(self, monkeypatch, event, keywords):
        """A clear (``admin_cache``) or an overflow lands between the
        regions' lookups and the merger's fetch of the winners' rows;
        the answer is still the client-side baseline's."""
        with MoDisSENSE(PlatformConfig.small()) as platform:
            api = RestApi(platform)
            pois = generate_pois(count=LIFETIME_POIS, seed=13)
            platform.load_pois(pois)
            platform.load_visits(generate_visits(
                range(1, 81), pois, seed=13, mean=12.0, std=4.0
            ))
            if event == "overflow":
                # Any payload fills it: every lookup finds it full.
                tiny = RegionScanCache(max_entries=1)
                platform.scan_cache = platform.hbase.scan_cache = tiny
            cache = platform.scan_cache
            query = SearchQuery(
                friend_ids=LIFETIME_FRIENDS, limit=10, keywords=keywords
            )
            want = platform.query_answering.search_personalized_client_side(
                query
            )
            assert want.pois
            for _ in range(3):  # opens, fills, serves
                warm = platform.search(query)
            if event == "clear":
                assert warm.cache_hits == len(LIFETIME_FRIENDS)
            real_merge = TopKMerger.merge
            replaced = []

            def merge_after_the_table_is_replaced(self, streams):
                held = cache.poi_attrs
                if event == "clear":
                    api.handle_json("admin_cache", json.dumps({"clear": True}))
                else:
                    region = platform.visits_repository.table.regions[0]
                    assert cache.lookup(region, OWNER) is None
                replaced.append(cache.poi_attrs is not held)
                return real_merge(self, streams)

            monkeypatch.setattr(
                TopKMerger, "merge", merge_after_the_table_is_replaced
            )
            racing = platform.search(query)
            monkeypatch.undo()
            assert not racing.degraded
            assert fingerprint(racing) == fingerprint(want)
            assert replaced == [True]  # a fresh table was bound
            if event == "clear":
                # Served whole from entries that rely on the old table,
                # whose rows the earlier queries decoded already.
                assert racing.cache_hits == len(LIFETIME_FRIENDS)
                assert racing.cells_decoded == 0
            after = platform.search(query)
            assert fingerprint(after) == fingerprint(want)


class SpyTable(POIAttrTable):
    """Counts every read and write a coprocessor makes: row reads
    (``gets``), index reads and row writes all add to ``touches``."""

    def __init__(self):
        super().__init__()
        self.touches = 0
        self.gets = 0

    def get(self, poi_id, default=None):
        self.touches += 1
        self.gets += 1
        return super().get(poi_id, default)

    def __setitem__(self, poi_id, attrs):
        self.touches += 1
        super().__setitem__(poi_id, attrs)

    @property
    def by_keyword(self):
        self.touches += 1
        return POIAttrTable.by_keyword.__get__(self)

    @by_keyword.setter
    def by_keyword(self, index):
        POIAttrTable.by_keyword.__set__(self, index)


class TestFaultTouchedInvocations:
    def _stack(self, **rates):
        fcfg = FaultsConfig(enabled=True, seed=21, **rates)
        stack = Stack(
            data_seed=5, cache=True, faults_config=fcfg,
            injector=FaultInjector(fcfg),
        )
        stack.scan_cache.poi_attrs = SpyTable()
        return stack

    def test_faulted_invocations_neither_read_nor_write_the_table(self):
        # Every attempt of every region is corrupted in flight: each one
        # ran the whole coprocessor, and none may have seen the table.
        stack = self._stack(corrupt_rate=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            for search in (stack.search_topk, stack.search_exhaustive):
                assert search(EXAMINE_ALL).degraded
        table = stack.scan_cache.poi_attrs
        assert (len(table), table.touches, table.payloads) == (0, 0, {})

    def test_clean_invocations_of_the_same_stack_do_use_it(self):
        stack = self._stack(corrupt_rate=0.0)
        assert not stack.search_topk(EXAMINE_ALL).degraded
        table = stack.scan_cache.poi_attrs
        assert len(table) == NUM_POIS and table.touches > NUM_POIS


# ------------------------------------------------------- keyword index

#: A small universe so that overwrites and shared keywords happen
#: often.
INDEX_KEYWORDS = ("cafe", "museum", "park", "bar", "beach")
INDEX_POIS = 12


def postings_from_rows(table, keyword):
    return {pid for pid, row in table.items() if keyword in row[3]}


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=INDEX_POIS - 1),
            st.frozensets(st.sampled_from(INDEX_KEYWORDS), max_size=3),
        ),
        max_size=60,
    ),
)
def test_the_index_equals_the_row_test(steps):
    """Inserts and overwrites that change a POI's keywords: after every
    step each keyword's postings are exactly the POIs whose row holds
    it."""
    table = POIAttrTable()
    for pid, keywords in steps:
        table[pid] = ("p%d" % pid, 0.0, 0.0, keywords)
        for keyword in INDEX_KEYWORDS:
            assert table.by_keyword.get(keyword, set()) == (
                postings_from_rows(table, keyword)
            )


def test_a_clear_never_empties_postings_a_reader_holds():
    cache = RegionScanCache(max_entries=2)
    table = cache.poi_attrs
    table.payloads.update({1: b"", 2: b""})
    table[1] = ("p1", 0.0, 0.0, frozenset({"cafe"}))
    held = table.by_keyword
    table[2] = ("p2", 0.0, 0.0, frozenset({"cafe"}))
    assert cache.lookup(Region([FAMILY]), OWNER) is None  # full: replaced
    fresh = cache.poi_attrs
    fresh[3] = ("p3", 0.0, 0.0, frozenset({"park"}))
    assert table.by_keyword is held == {"cafe": {1, 2}}
    assert fresh.by_keyword == {"park": {3}}
    cache.clear()
    assert held == {"cafe": {1, 2}} and fresh.by_keyword == {"park": {3}}
    assert cache.poi_attrs.by_keyword == {}


def universe_rows():
    """60 POI ids -> attribute rows, on a 6 x 10 lat/lon grid."""
    return {
        pid: attrs_row(
            pid, float(pid % 6), float(pid % 10),
            {INDEX_KEYWORDS[pid % 5], INDEX_KEYWORDS[pid % 3]},
        )
        for pid in range(1, 61)
    }


def aggregates_of(pids):
    return PartialAggregates.from_rows((pid, 1.0, 1) for pid in pids)


def payloads_of(truth):
    return {
        pid: raw_payload(pid, row[1], row[2], row[3])
        for pid, row in truth.items()
    }


def test_select_under_concurrent_writers_equals_the_row_test():
    """Two writers insert rows while a third thread runs the region
    filter, which decodes and inserts the rows it misses, against the
    same table.  Rows are per-POI constants, so the row test gives one
    answer whatever the table held when the filter looked."""
    truth = universe_rows()
    pids = list(truth)
    rng = random.Random(3)
    queries = [
        (
            aggregates_of(rng.sample(pids, 40)),
            rng.choice((None, BoundingBox(1.0, 2.0, 4.0, 8.0))),
            set(rng.sample(INDEX_KEYWORDS, rng.randint(1, 2))),
        )
        for _ in range(20)
    ]
    table = POIAttrTable()
    table.payloads.update(payloads_of(truth))
    errors = []
    stop = threading.Event()

    def write(seed):
        wrng = random.Random(seed)
        try:
            while not stop.is_set():
                pid = wrng.choice(pids)
                table[pid] = truth[pid]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def read():
        try:
            for round_ in range(300):
                aggregates, bbox, wanted = queries[round_ % len(queries)]
                passing, rows, _decoded = select(
                    aggregates, table, bbox, wanted
                )
                want = [
                    pid for pid in aggregates.counts
                    if passes_filter(truth[pid], bbox, wanted)
                ]
                if list(passing.counts) != want:
                    errors.append(("passing", round_, list(passing.counts)))
                if rows != [truth[pid] for pid in want]:
                    errors.append(("rows", round_))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=write, args=(seed,)) for seed in (1, 2)
        ] + [threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for keyword in INDEX_KEYWORDS:
        assert table.by_keyword.get(keyword, set()) == (
            postings_from_rows(table, keyword)
        )


def test_changed_attributes_after_a_clear_are_indexed_and_filtered_anew():
    """DESIGN.md §7: a POI whose attributes change must be followed by
    ``admin_cache {"clear": true}``.  After the clear, the row decoded
    from a payload carrying the new keywords is the only one the index
    and the filter know."""
    cache = RegionScanCache(max_entries=64)
    aggregates = PartialAggregates.from_rows([(7, 1.0, 1)])
    cache.poi_attrs.payloads[7] = raw_payload(7, 1.0, 1.0, {"cafe", "bar"})
    passing, _rows, decoded = select(
        aggregates, cache.poi_attrs, None, {"cafe"}
    )
    assert (list(passing.counts), decoded) == ([7], 1)

    cache.clear()
    table = cache.poi_attrs
    # The next scan of POI 7 records a payload with the new keywords.
    table.payloads[7] = raw_payload(7, 1.0, 1.0, {"park"})
    passing, _rows, decoded = select(aggregates, table, None, {"cafe"})
    assert (list(passing.counts), decoded) == ([], 1)
    assert table[7][3] == frozenset({"park"})
    assert {kw: ids for kw, ids in table.by_keyword.items() if ids} == {
        "park": {7}
    }
    for wanted in ({"cafe"}, {"bar"}, {"park"}, {"park", "cafe"}):
        passing, rows, decoded = select(aggregates, table, None, wanted)
        assert decoded == 0
        assert list(passing.counts) == (
            [7] if passes_filter(table[7], None, wanted) else []
        )
        assert rows == ([table[7]] if passing.counts else [])
