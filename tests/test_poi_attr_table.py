"""The cluster's one POI attribute table (``RegionScanCache.poi_attrs``).

Replicated POI attributes are per-POI constants, so a payload parsed by
any region invocation, in either coprocessor mode, serves every region
and query after it: ``cells_decoded`` is bounded by the distinct POIs a
query examines, not by regions x POIs, and repeats cost nothing.
"""

import warnings

import pytest

from repro.config import FaultsConfig
from repro.core.faults import FaultInjector
from repro.core.modules.query_answering import SearchQuery
from repro.errors import DegradedResultWarning
from repro.hbase import RegionScanCache
from repro.hbase.cache import POIAttrTable

from .test_topk_oracle import (
    ALL_FRIENDS,
    BBOXES,
    NUM_POIS,
    NUM_REGIONS,
    POIS,
    Stack,
    fingerprint,
)

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


class TestClearAndBound:
    def test_clear_empties_the_table(self):
        stack = Stack(data_seed=5, cache=True)
        stack.search_topk(EXAMINE_ALL)
        assert stack.scan_cache.stats()["poi_attrs"] == NUM_POIS
        stack.scan_cache.clear()
        assert len(stack.scan_cache.poi_attrs) == 0
        assert stack.scan_cache.stats()["poi_attrs"] == 0
        assert stack.search_topk(EXAMINE_ALL).cells_decoded == NUM_POIS

    def test_bound_holds_under_ten_times_max_entries_pois(self):
        table = POIAttrTable(max_entries=4)
        for poi_id in range(40):
            table[poi_id] = ("p", 0.0, 0.0, frozenset())
            assert len(table) <= 4
        assert table.get(39) is not None  # the newest row is kept

    def test_a_full_table_never_changes_the_answer(self):
        stack = Stack(data_seed=5, cache=True)
        small = RegionScanCache(max_entries=NUM_POIS // 10)
        stack.scan_cache = small
        stack.cluster.attach_scan_cache(small)
        want = fingerprint(
            cache_off(stack, stack.search_exhaustive, EXAMINE_ALL)
        )
        for search in (stack.search_topk, stack.search_exhaustive) * 2:
            assert fingerprint(search(EXAMINE_ALL)) == want
            assert len(small.poi_attrs) <= NUM_POIS // 10


class SpyTable(POIAttrTable):
    """Counts every read and write a coprocessor makes."""

    def __init__(self, max_entries):
        super().__init__(max_entries)
        self.touches = 0

    def get(self, poi_id, default=None):
        self.touches += 1
        return super().get(poi_id, default)

    def __setitem__(self, poi_id, attrs):
        self.touches += 1
        super().__setitem__(poi_id, attrs)


class TestFaultTouchedInvocations:
    def _stack(self, **rates):
        fcfg = FaultsConfig(enabled=True, seed=21, **rates)
        stack = Stack(
            data_seed=5, cache=True, faults_config=fcfg,
            injector=FaultInjector(fcfg),
        )
        stack.scan_cache.poi_attrs = SpyTable(4096)
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
        assert (len(table), table.touches) == (0, 0)

    def test_clean_invocations_of_the_same_stack_do_use_it(self):
        stack = self._stack(corrupt_rate=0.0)
        assert not stack.search_topk(EXAMINE_ALL).degraded
        table = stack.scan_cache.poi_attrs
        assert len(table) == NUM_POIS and table.touches > NUM_POIS
