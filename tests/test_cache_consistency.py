"""Oracle-backed consistency suite for the concurrent-query cache layer.

The contract under test: with the region scan cache and the hot-POI
cache enabled, every answer is **byte-identical** to the cache-off
oracle, no matter how writes, flushes, compactions, HotIn refreshes and
queries interleave.  The randomized section replays 200+ seeded
interleavings of those operations and compares every query's cached
answer against a fresh cache-off execution of the same query.

Unit sections pin the individual mechanisms: quiet-region admission,
seqid bumps on every mutation kind superseding a region's generation,
TTL expiry, whole-generation LRU eviction under the entry bound, the
maintenance sweep, node-failure invalidation, and that no metrics call
is made while a cache lock is held.
"""

import random

import pytest

from repro.config import ClusterConfig, TopKConfig
from repro.core.caching import HotPOICache, SingleFlight
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
)
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import (
    FAMILY,
    VisitsRepository,
    VisitStruct,
)
from repro.geo import BoundingBox
from repro.hbase import HBaseCluster, RegionScanCache
from repro.hbase.cache import FriendPartial
from repro.sqlstore import SqlEngine

NUM_SEEDS = 200
REBUILD_EVERY = 25
OPS_PER_SEED = 12

#: Fixed POI universe: id -> (name, lat, lon, keywords).
POIS = {
    1: ("Acropolis", 37.9715, 23.7257, ("museum", "history")),
    2: ("Plaka Cafe", 37.9700, 23.7280, ("cafe",)),
    3: ("Tech Park", 37.9900, 23.7800, ("work", "cafe")),
    4: ("North Pier", 38.0200, 23.8000, ("sea",)),
    5: ("Old Market", 37.9600, 23.7100, ("market", "history")),
}

#: Bounding boxes the random queries draw from (None = no spatial filter).
BBOXES = (
    None,
    BoundingBox(37.96, 23.70, 37.98, 23.74),  # downtown three POIs
    BoundingBox(38.00, 23.75, 38.10, 23.90),  # north pier only
)

KEYWORD_CHOICES = ((), ("cafe",), ("history", "sea"), ("nothing-matches",))


def _pois_fingerprint(result):
    """The caller-observable answer rows, bit-exact."""
    return [
        (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
        for p in result.pois
    ]


class _Stack:
    """A small platform slice: cluster + repositories + query module,
    with both caches attached and detachable for oracle runs."""

    def __init__(self, users=24, regions=8, nodes=4, topk=False):
        self.users = users
        self.cluster = HBaseCluster(
            ClusterConfig(num_nodes=nodes, regions_per_table=regions)
        )
        self.pois = POIRepository(SqlEngine())
        for poi_id, (name, lat, lon, keywords) in POIS.items():
            self.pois.add(
                POI(
                    poi_id=poi_id,
                    name=name,
                    lat=lat,
                    lon=lon,
                    keywords=keywords,
                    category="test",
                )
            )
        self.visits = VisitsRepository(self.cluster, num_regions=regions)
        self.scan_cache = RegionScanCache(max_entries=4096)
        self.cluster.attach_scan_cache(self.scan_cache)
        self.hot_poi_cache = HotPOICache(max_entries=64)
        #: With ``topk`` the cache is opened, filled and read by
        #: streaming-mode queries only; the oracle stays exhaustive.
        self.topk_cfg = TopKConfig(enabled=topk)
        self.qa = QueryAnsweringModule(
            self.pois,
            self.visits,
            hot_poi_cache=self.hot_poi_cache,
            topk_config=self.topk_cfg,
        )
        self.failed_node = None
        self._ts = 0

    def write(self, rng):
        self._ts += 1
        poi_id = rng.choice(list(POIS))
        name, lat, lon, keywords = POIS[poi_id]
        self.visits.store(
            VisitStruct(
                user_id=rng.randrange(1, self.users + 1),
                poi_id=poi_id,
                timestamp=self._ts,
                # Arbitrary float grades on purpose: sums are inexact,
                # so any fold-order difference between the cached and
                # uncached paths would surface as a bit mismatch.
                grade=rng.uniform(0.0, 5.0),
                poi_name=name,
                lat=lat,
                lon=lon,
                keywords=keywords,
            )
        )

    def random_query(self, rng):
        k = rng.randrange(1, self.users + 1)
        friends = tuple(rng.sample(range(1, self.users + 1), k))
        since, until = None, None
        if rng.random() < 0.4:
            since = rng.randrange(0, max(1, self._ts))
            until = since + rng.randrange(1, self._ts + 2)
        return SearchQuery(
            bbox=rng.choice(BBOXES),
            keywords=rng.choice(KEYWORD_CHOICES),
            friend_ids=friends,
            since=since,
            until=until,
            sort_by=rng.choice(("interest", "hotness")),
            limit=rng.choice((3, 10)),
        )

    def oracle(self, query):
        """Run ``query`` with every cache detached and top-k off,
        restore after."""
        self.cluster.scan_cache = None
        saved_hot = self.qa.hot_poi_cache
        self.qa.hot_poi_cache = None
        saved_topk = self.topk_cfg.enabled
        self.topk_cfg.enabled = False
        try:
            return self.qa.search(query)
        finally:
            self.cluster.scan_cache = self.scan_cache
            self.qa.hot_poi_cache = saved_hot
            self.topk_cfg.enabled = saved_topk

    def toggle_node(self, rng):
        """Fail a node, or bring the failed one back (at most one down
        at a time; without a fault injector answers stay exact)."""
        if self.failed_node is None:
            self.failed_node = rng.randrange(4)
            self.cluster.fail_node(self.failed_node)
        else:
            self.cluster.recover_node(self.failed_node)
            self.failed_node = None


class TestRandomizedInterleavings:
    """200 seeded interleavings of writes / flushes / compactions / TTL
    cutoffs / HotIn refreshes / node failures / queries; every query is
    checked against the cache-off oracle."""

    def _run(self, topk):
        stack = _Stack(topk=topk)
        total_queries = 0
        for seed in range(NUM_SEEDS):
            if seed and seed % REBUILD_EVERY == 0:
                stack = _Stack(topk=topk)
            rng = random.Random(seed)
            # Every interleaving starts with some data in place.
            for _ in range(rng.randrange(3, 9)):
                stack.write(rng)
            for _ in range(OPS_PER_SEED):
                op = rng.random()
                if op < 0.25:
                    stack.write(rng)
                elif op < 0.32:
                    stack.visits.table.flush()
                elif op < 0.37:
                    stack.visits.table.compact()
                elif op < 0.40:
                    stack.visits.table.set_ttl_cutoff(
                        FAMILY, rng.randrange(0, stack._ts // 2 + 1)
                    )
                elif op < 0.44:
                    stack.toggle_node(rng)
                elif op < 0.52:
                    # HotIn-style refresh: rewrite a POI's scores and
                    # bump the epoch, as MoDisSENSE.run_hotin does.
                    stack.pois.update_hotin(
                        rng.choice(list(POIS)),
                        hotness=rng.uniform(0, 10),
                        interest=rng.uniform(0, 5),
                    )
                    stack.hot_poi_cache.bump_epoch()
                elif op < 0.60:
                    query = SearchQuery(
                        bbox=rng.choice(BBOXES),
                        keywords=rng.choice(KEYWORD_CHOICES),
                        sort_by=rng.choice(("interest", "hotness")),
                        limit=rng.choice((3, 10)),
                    )
                    cached = stack.qa.search(query)
                    oracle = stack.oracle(query)
                    assert _pois_fingerprint(cached) == _pois_fingerprint(
                        oracle
                    ), "non-personalized mismatch at seed %d" % seed
                    total_queries += 1
                else:
                    query = stack.random_query(rng)
                    cached = stack.qa.search(query)
                    oracle = stack.oracle(query)
                    assert _pois_fingerprint(cached) == _pois_fingerprint(
                        oracle
                    ), "personalized mismatch at seed %d" % seed
                    total_queries += 1
        # The suite is vacuous if the cache never actually served
        # anything; demand real hits on the final stack.
        assert stack.scan_cache.stats()["hits"] > 0
        assert total_queries > NUM_SEEDS  # several queries per seed

    def test_cached_answers_match_oracle_across_interleavings(self):
        self._run(topk=False)

    def test_topk_filled_cache_matches_oracle_across_interleavings(self):
        self._run(topk=True)

    def test_repeat_query_hits_and_matches_after_quiescence(self):
        stack = _Stack()
        rng = random.Random(4242)
        for _ in range(30):
            stack.write(rng)
        query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)),
            sort_by="interest",
        )
        # First touch only records each region's seqid: a region is
        # admitted once a later query finds it unwritten since.
        first = stack.qa.search(query)
        assert first.cache_misses > 0 and first.cache_hits == 0
        assert len(stack.scan_cache) == 0
        fill = stack.qa.search(query)
        assert fill.cache_misses > 0 and fill.cache_hits == 0
        assert len(stack.scan_cache) == stack.users
        second = stack.qa.search(query)
        assert second.cache_hits > 0 and second.cache_misses == 0
        assert second.records_scanned == 0  # fully served from cache
        assert _pois_fingerprint(first) == _pois_fingerprint(second)
        assert _pois_fingerprint(second) == _pois_fingerprint(
            stack.oracle(query)
        )


class TestSeqidInvalidation:
    """Every region mutation kind must reject previously cached entries."""

    def _stack(self):
        stack = _Stack()
        rng = random.Random(7)
        for _ in range(40):
            stack.write(rng)
        return stack

    def _warm(self, stack, query):
        stack.qa.search(query)  # open the generations
        stack.qa.search(query)  # populate
        warm = stack.qa.search(query)
        assert warm.cache_hits > 0
        return warm

    def test_write_invalidates_owning_region_entries(self):
        stack = self._stack()
        query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)), sort_by="hotness"
        )
        self._warm(stack, query)
        rng = random.Random(8)
        stack.write(rng)
        after = stack.qa.search(query)
        # The write's region misses; untouched regions still hit.
        assert after.cache_misses > 0
        assert after.cache_hits > 0
        assert _pois_fingerprint(after) == _pois_fingerprint(
            stack.oracle(query)
        )

    @pytest.mark.parametrize("mutation", ["flush", "compact"])
    def test_flush_and_compaction_invalidate(self, mutation):
        stack = self._stack()
        query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)), sort_by="interest"
        )
        self._warm(stack, query)
        if mutation == "flush":
            stack.visits.table.flush()
        else:
            stack.visits.table.flush()
            stack.visits.table.compact()
        after = stack.qa.search(query)
        # A full-table maintenance pass touches every region, so the
        # whole warm set must be rejected and rescanned.
        assert after.cache_hits == 0
        assert after.cache_misses > 0
        assert _pois_fingerprint(after) == _pois_fingerprint(
            stack.oracle(query)
        )

    def test_store_race_stamp_is_stale_on_arrival(self):
        """Fills for a generation the region has moved past are never
        served, and a superseded generation cannot be revived."""
        cache = RegionScanCache()
        assert cache.lookup(5, current_seqid=3) is None  # opens
        generation = cache.lookup(5, current_seqid=3)
        cache.store(5, generation, {(11, None, None): _partial()})
        # Region mutated: the next invocation finds the seqid moved and
        # the whole generation goes, O(1).
        assert cache.lookup(5, current_seqid=4) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0
        # A scan that raced the write still holds the old generation;
        # its late fills are dropped, not attached to the new one.
        cache.store(5, generation, {(12, None, None): _partial()})
        assert len(cache) == 0
        assert cache.lookup(5, current_seqid=4).entries == {}
        # ...and the old seqid cannot revive it either.
        assert cache.lookup(5, current_seqid=3) is None


def _partial():
    return FriendPartial([1], [2.0], [4], [b"{}"])


def _admitted(cache, region_id, seqid=0):
    """The region's generation, opening it first if need be."""
    return cache.lookup(region_id, seqid) or cache.lookup(region_id, seqid)


class TestCacheMechanics:
    def test_quiet_region_admission(self):
        cache = RegionScanCache()
        # Written between every two invocations: never admitted.
        for seqid in range(5):
            assert cache.lookup(1, seqid) is None
        # Unwritten since the previous invocation: admitted.
        assert cache.lookup(1, 4) is not None

    def test_friend_partial_round_trips_columns_in_order(self):
        columns = ([2**63 + 5, 7], [0.1 + 0.2, 4.5], [3, 1], [b"a", b"b"])
        partial = FriendPartial(*columns)
        assert (
            list(partial.poi_ids), list(partial.grade_sums),
            list(partial.counts), list(partial.raws),
        ) == columns
        assert list(FriendPartial([], [], [], []).poi_ids) == []

    def test_lru_evicts_whole_generations(self):
        cache = RegionScanCache(max_entries=2)
        for region_id, friend_id in ((1, 1), (1, 2), (2, 3)):
            cache.store(
                region_id,
                _admitted(cache, region_id),
                {(friend_id, None, None): _partial()},
            )
        # Region 1's generation (two entries) was least recently used.
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 2
        assert cache.lookup(1, 0) is None
        assert (3, None, None) in cache.lookup(2, 0).entries
        assert cache.invalidate_regions([1, 2]) == 1

    def test_entry_count_never_exceeds_the_bound(self):
        """10x ``max_entries`` distinct (friend, window) keys, spread
        over regions or piled into one."""
        cache = RegionScanCache(max_entries=16)
        for key in range(160):
            region_id = key % 5 if key < 80 else 9
            cache.store(
                region_id,
                _admitted(cache, region_id),
                {(key, key % 3, None): _partial()},
            )
            assert cache.stats()["entries"] <= 16
        big = {(key, None, None): _partial() for key in range(1000, 1100)}
        cache.store(3, _admitted(cache, 3), big)
        assert 0 < cache.stats()["entries"] <= 16

    def test_sweep_reaps_superseded_generations(self):
        cache = RegionScanCache()
        for region_id, seqid in ((1, 7), (2, 3), (3, 1)):
            cache.store(
                region_id,
                _admitted(cache, region_id, seqid),
                {(region_id, None, None): _partial()},
            )
        # Region 1 is current and a region the caller does not list is
        # left alone; regions 2 and 3 have moved on.
        assert cache.sweep(current_seqids={1: 7, 2: 4, 3: 2}) == 2
        assert cache.sweep(current_seqids={}) == 0
        assert len(cache) == 1

    def test_node_failure_invalidates_moved_regions(self):
        stack = _Stack()
        rng = random.Random(9)
        for _ in range(40):
            stack.write(rng)
        query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)), sort_by="hotness"
        )
        stack.qa.search(query)
        stack.qa.search(query)
        populated = len(stack.scan_cache)
        assert populated > 0
        before = stack.scan_cache.stats()["invalidations"]
        stack.cluster.fail_node(0)
        assert stack.scan_cache.stats()["invalidations"] > before
        after = stack.qa.search(query)
        assert _pois_fingerprint(after) == _pois_fingerprint(
            stack.oracle(query)
        )

    def test_node_recovery_invalidates_moved_regions(self):
        # Symmetric with failure: recovery moves regions *back* to the
        # revived node, so partials cached while the survivors hosted
        # them must be dropped too.
        stack = _Stack()
        rng = random.Random(9)
        for _ in range(40):
            stack.write(rng)
        query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)), sort_by="hotness"
        )
        stack.cluster.fail_node(0)
        stack.qa.search(query)
        stack.qa.search(query)  # cache partials on the survivors
        assert len(stack.scan_cache) > 0
        before = stack.scan_cache.stats()["invalidations"]
        stack.cluster.recover_node(0)
        assert stack.scan_cache.stats()["invalidations"] > before
        after = stack.qa.search(query)
        assert _pois_fingerprint(after) == _pois_fingerprint(
            stack.oracle(query)
        )


class _LockCheckingMetrics:
    """Metrics double: fails the test if a cache reports while holding
    its own lock (the registry takes a lock of its own, so that nests
    two locks on the query path)."""

    def __init__(self):
        self.cache = None
        self.calls = []

    def increment(self, name, amount=1, labels=None):
        assert not self.cache._lock.locked(), name
        self.calls.append((name, amount))


class TestNoMetricsUnderCacheLock:
    def test_scan_cache_emits_after_releasing_its_lock(self):
        metrics = _LockCheckingMetrics()
        cache = metrics.cache = RegionScanCache(max_entries=2, metrics=metrics)
        cache.store(1, _admitted(cache, 1), {(1, None, None): _partial()})
        cache.lookup(1, 1)  # superseded: invalidation
        cache.store(
            2,
            _admitted(cache, 2),
            {(k, None, None): _partial() for k in (1, 2)},
        )
        cache.store(3, _admitted(cache, 3), {(1, None, None): _partial()})
        cache.invalidate_regions([3])
        cache.store(4, _admitted(cache, 4), {(1, None, None): _partial()})
        cache.sweep({4: 1})  # superseded
        cache.store(5, _admitted(cache, 5), {(1, None, None): _partial()})
        cache.clear()
        # One call per operation that dropped something.
        assert metrics.calls == [
            ("cache.invalidations", 1),
            ("cache.evictions", 2),
            ("cache.invalidations", 1),
            ("cache.invalidations", 1),
            ("cache.invalidations", 1),
        ]

    def test_hot_poi_cache_emits_after_releasing_its_lock(self):
        metrics = _LockCheckingMetrics()
        cache = metrics.cache = HotPOICache(max_entries=1, metrics=metrics)
        assert cache.get("a", 0) is None  # miss
        cache.store("a", 0, (1,))
        assert cache.get("a", 0) == (1,)  # hit
        assert cache.get("a", 1) is None  # stale: invalidation + miss
        cache.store("a", 1, (1,))
        cache.store("b", 1, (2,))  # eviction
        assert cache.get_stale("b") == (2,)
        cache.bump_epoch()
        cache.store("c", 1, (3,))
        cache.clear()
        assert {name for name, _ in metrics.calls} == {
            "cache.misses",
            "cache.hits",
            "cache.invalidations",
            "cache.evictions",
            "cache.stale_serves",
        }


class TestHotPOICache:
    def test_epoch_bump_invalidates(self):
        cache = HotPOICache()
        cache.store("k", version=1, rows=(1, 2))
        assert cache.get("k", 1) == (1, 2)
        cache.bump_epoch()
        assert cache.get("k", 1) is None

    def test_version_mismatch_invalidates(self):
        cache = HotPOICache()
        cache.store("k", version=1, rows=(1,))
        assert cache.get("k", 2) is None
        assert cache.stats()["invalidations"] == 1

    def test_poi_writes_bump_repository_version(self):
        pois = POIRepository(SqlEngine())
        v0 = pois.version
        pois.add(POI(poi_id=1, name="A", lat=0, lon=0,
                     keywords=(), category="c"))
        assert pois.version == v0 + 1
        assert pois.update_hotin(1, hotness=2.0, interest=1.0)
        assert pois.version == v0 + 2
        # Unknown POI: no write happened, version must not move.
        assert not pois.update_hotin(999, hotness=0.0, interest=0.0)
        assert pois.version == v0 + 2

    def test_lru_bound(self):
        cache = HotPOICache(max_entries=2)
        cache.store("a", 0, 1)
        cache.store("b", 0, 2)
        cache.store("c", 0, 3)
        assert cache.get("a", 0) is None
        assert cache.stats()["evictions"] == 1


class TestSingleFlightUnit:
    def test_sequential_calls_never_coalesce(self):
        sf = SingleFlight()
        r1, c1 = sf.do("k", lambda: 1)
        r2, c2 = sf.do("k", lambda: 2)
        assert (r1, c1) == (1, False)
        assert (r2, c2) == (2, False)
        assert sf.coalesced_total == 0
        assert sf.in_flight() == 0
