"""Oracle-backed consistency suite for the concurrent-query cache layer.

The contract under test: with the region scan cache and the hot-POI
cache enabled, every answer is **byte-identical** to the cache-off
oracle, no matter how writes, flushes, compactions, HotIn refreshes and
queries interleave.  The randomized section replays 200+ seeded
interleavings of those operations and compares every query's cached
answer against a fresh cache-off execution of the same query.

A hypothesis state machine (and a fixed-seed corpus over the same
rules) then drives one small table through every mutation kind a region
has — put, delete, ``put_batch``, flush, minor and major compaction,
TTL, crash + replay, ``bulk_load``, journal overflow — and checks, next
to the byte-for-byte answer, *which* friends each query found cached:
exactly those not written since their fill in a region whose journal
followed every write.

Unit sections pin the individual mechanisms: admission (the first
invocation opens; written friends miss, untouched ones hit; an
overflowed region is not admitted), every structural event superseding
a region's generation, the four put/lookup interleavings, late fills,
whole-generation LRU eviction under the entry bound, the maintenance
sweep, node-failure invalidation, and that no metrics call is made
while a cache lock is held.
"""

import random
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

import repro.hbase.region as region_mod
from repro.config import ClusterConfig, TopKConfig
from repro.core.caching import HotPOICache, SingleFlight
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
)
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import (
    FAMILY,
    QUALIFIER,
    VisitsRepository,
    VisitStruct,
)
from repro.geo import BoundingBox
from repro.hbase import Cell, HBaseCluster, MemStore, RegionScanCache
from repro.hbase.cache import FriendPartial
from repro.hbase.region import JOURNAL_MAX, Region
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
        cache, region = RegionScanCache(), _region()
        rid = region.region_id
        assert cache.lookup(region, OWNER) is None  # opens
        generation = cache.lookup(region, OWNER)
        cache.store(rid, generation, {(11, None, None): _partial()})
        # A structural event: the region cannot say what changed, so
        # the next invocation drops the whole generation, O(1).
        region.set_ttl_cutoff(FAMILY, 5)
        assert cache.lookup(region, OWNER) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0
        # A scan that raced the event still holds the old generation;
        # its late fills are dropped, not attached to the new one.
        cache.store(rid, generation, {(12, None, None): _partial()})
        assert len(cache) == 0
        fresh = cache.lookup(region, OWNER)
        assert fresh.entries == {}
        # ...and the old generation cannot be revived through the new
        # one's admission either.
        cache.store(rid, generation, {(12, None, None): _partial()})
        assert fresh.entries == {} and len(cache) == 0

    def test_late_fill_after_a_write_evicted_its_owner_is_dropped(self):
        """Trap 1.  Reader A scans friend 11; a put to friend 11
        completes; reader B's lookup consumes the journal row (nothing
        of friend 11 to evict yet); then A's store arrives.  The
        generation is still the region's and holds the same entries,
        but A's fill predates a write no later lookup will see again."""
        cache, region = RegionScanCache(), _region()
        rid = region.region_id
        assert cache.lookup(region, OWNER) is None
        reader_a = cache.lookup(region, OWNER)  # A scans under this
        _put(region, 11)
        reader_b = cache.lookup(region, OWNER)  # consumes friend 11's row
        assert reader_b is not None and reader_b.entries is reader_a.entries
        cache.store(rid, reader_a, {(11, None, None): _partial()})
        assert len(cache) == 0
        assert cache.lookup(region, OWNER).entries == {}
        # B scanned after the put: its fill is current and lands.
        cache.store(rid, reader_b, {(11, None, None): _partial()})
        assert set(cache.lookup(region, OWNER).entries) == {(11, None, None)}


def _partial():
    return FriendPartial([1], [2.0], [4], [b"{}"])


#: ``row -> owner`` as the coprocessor supplies it.
OWNER = VisitsRepository.user_of_row


def _region():
    """A bare region of the visits family (fresh region id)."""
    return Region([FAMILY])


def _visit_cell(user_id, ts=1, poi_id=1):
    return Cell(
        row=VisitsRepository.row_key(user_id, ts, poi_id),
        family=FAMILY,
        qualifier=QUALIFIER,
        timestamp=ts,
        value=b"",
    )


def _put(region, user_id, ts=1):
    region.put(_visit_cell(user_id, ts))


def _overflow(region):
    """One batch the journal has no room for."""
    region.put_batch(
        [_visit_cell(99, ts) for ts in range(1, JOURNAL_MAX + 2)]
    )


def _admitted(cache, region):
    """The region's generation, opening it first if need be."""
    return cache.lookup(region, OWNER) or cache.lookup(region, OWNER)


class TestCacheMechanics:
    def test_quiet_region_admission(self):
        cache, region = RegionScanCache(), _region()
        rid = region.region_id
        # The first invocation on a region only opens.
        assert cache.lookup(region, OWNER) is None
        # Unwritten since: admitted.
        generation = cache.lookup(region, OWNER)
        assert generation is not None
        cache.store(
            rid,
            generation,
            {
                (1, None, None): _partial(),
                (1, 5, None): _partial(),
                (2, None, None): _partial(),
            },
        )
        # Written, and the journal followed: still admitted.  The
        # written friend misses (all its windows), the other one hits.
        _put(region, 1)
        followed = cache.lookup(region, OWNER)
        assert followed is not None
        assert set(followed.entries) == {(2, None, None)}
        assert len(cache) == 1
        assert cache.stats()["evicted_by_write"] == 2
        assert cache.stats()["invalidations"] == 0
        # Journal overflowed between every two invocations: the region
        # cannot enumerate its writes, so it is never admitted.
        for _ in range(3):
            _overflow(region)
            assert len(region._journal) <= JOURNAL_MAX
            assert cache.lookup(region, OWNER) is None
        assert cache.stats()["journal_overflows"] == 3
        assert len(cache) == 0
        # Followed again since the last one: admitted.
        assert cache.lookup(region, OWNER) is not None

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
        one, two = _region(), _region()
        for region, friend_id in ((one, 1), (one, 2), (two, 3)):
            cache.store(
                region.region_id,
                _admitted(cache, region),
                {(friend_id, None, None): _partial()},
            )
        # Region one's generation (two entries) was least recently used.
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 2
        assert cache.lookup(one, OWNER) is None
        assert (3, None, None) in cache.lookup(two, OWNER).entries
        assert cache.invalidate_regions([one.region_id, two.region_id]) == 1

    def test_entry_count_never_exceeds_the_bound(self):
        """10x ``max_entries`` distinct (friend, window) keys, spread
        over regions or piled into one."""
        cache = RegionScanCache(max_entries=16)
        regions = [_region() for _ in range(6)]
        for key in range(160):
            region = regions[key % 5 if key < 80 else 5]
            cache.store(
                region.region_id,
                _admitted(cache, region),
                {(key, key % 3, None): _partial()},
            )
            assert cache.stats()["entries"] <= 16
        big = {(key, None, None): _partial() for key in range(1000, 1100)}
        cache.store(regions[3].region_id, _admitted(cache, regions[3]), big)
        assert 0 < cache.stats()["entries"] <= 16

    def test_sweep_reaps_superseded_generations(self):
        cache = RegionScanCache()
        quiet, written, flushed, overflowed, unlisted = regions = [
            _region() for _ in range(5)
        ]
        for region in regions:
            cache.store(
                region.region_id,
                _admitted(cache, region),
                {(1, None, None): _partial()},
            )
        # Superseded means the region answers None for the generation's
        # mark.  A written region whose journal reaches back to it does
        # not (Trap 2: its seqid moved, its entries are still good); a
        # region the caller does not list is left alone.
        _put(written, 2)
        _put(flushed, 2)
        flushed.flush()
        _overflow(overflowed)
        _put(unlisted, 2)
        unlisted.flush()
        assert cache.sweep([quiet, written, flushed, overflowed]) == 2
        assert cache.sweep([]) == 0
        assert len(cache) == 3
        assert cache.lookup(written, OWNER).entries  # friend 1 survived
        assert cache.lookup(flushed, OWNER) is None

    def test_maintenance_tick_keeps_followed_regions(self):
        """``cache_maintenance`` between two queries: regions written
        since their fill keep their entries (the untouched friends
        still hit afterwards), flushed ones are reaped."""
        stack = _Stack()
        rng = random.Random(11)
        for _ in range(60):
            stack.write(rng)
        query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)), sort_by="interest"
        )
        for _ in range(3):
            warm = stack.qa.search(query)
        assert (warm.cache_hits, warm.cache_misses) == (stack.users, 0)
        stack.write(rng)  # one friend, one region
        assert stack.cluster.scan_cache_sweep() == 0
        assert len(stack.scan_cache) == stack.users
        after = stack.qa.search(query)
        assert (after.cache_hits, after.cache_misses) == (stack.users - 1, 1)
        regions = stack.visits.table.regions
        flushed = [r for r in regions if r.approx_rows(FAMILY)][:2]
        reaped = sum(
            len(stack.scan_cache._generations[r.region_id].entries)
            for r in flushed
        )
        for region in flushed:
            region.flush()
        assert stack.cluster.scan_cache_sweep() == reaped > 0
        assert len(stack.scan_cache) == stack.users - reaped
        assert _pois_fingerprint(stack.qa.search(query)) == _pois_fingerprint(
            stack.oracle(query)
        )

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
        self.calls.append((name, amount, (labels or {}).get("reason")))


class TestNoMetricsUnderCacheLock:
    def test_scan_cache_emits_after_releasing_its_lock(self):
        metrics = _LockCheckingMetrics()
        cache = metrics.cache = RegionScanCache(max_entries=2, metrics=metrics)
        r = [_region() for _ in range(6)]

        def fill(region, *friends):
            cache.store(
                region.region_id,
                _admitted(cache, region),
                {(k, None, None): _partial() for k in friends},
            )

        fill(r[0], 1)
        _put(r[0], 1)
        cache.lookup(r[0], OWNER)  # written friend: per-owner eviction
        fill(r[1], 1)
        r[1].set_ttl_cutoff(FAMILY, 5)
        cache.lookup(r[1], OWNER)  # superseded: wholesale
        fill(r[2], 1, 2)  # over the bound: LRU eviction
        fill(r[3], 1)
        cache.invalidate_regions([r[3].region_id])
        fill(r[4], 1)
        r[4].set_ttl_cutoff(FAMILY, 5)
        cache.sweep(r)  # superseded
        fill(r[5], 1)
        cache.clear()
        # One call per operation that dropped something, saying why.
        assert metrics.calls == [
            ("cache.invalidations", 1, "write"),
            ("cache.invalidations", 1, "generation"),
            ("cache.evictions", 2, None),
            ("cache.invalidations", 1, "generation"),
            ("cache.invalidations", 1, "generation"),
            ("cache.invalidations", 1, "generation"),
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
        assert {name for name, *_ in metrics.calls} == {
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


# --------------------------------------------------------------------------
# One put against one reader: the four interleavings of DESIGN.md §7.1.
# --------------------------------------------------------------------------


class _HookedMemStore(MemStore):
    """A memstore that calls back once, at a chosen point: after a
    write is applied (readable, not yet journaled or announced) or
    before a slice is taken (a reader is mid-fold)."""

    after_apply = None
    before_slice = None

    def _fire(self, name):
        hook = getattr(self, name)
        if hook is not None:
            setattr(self, name, None)
            hook()

    def put(self, cell):
        super().put(cell)
        self._fire("after_apply")

    def put_batch(self, cells):
        super().put_batch(cells)
        self._fire("after_apply")

    def slice(self, start_row=None, stop_row=None):
        self._fire("before_slice")
        return super().slice(start_row, stop_row)


class TestWriteInterleavings:
    """W1 = the put is applied, W2 = journaled and announced (one step
    under the region's journal lock); R1 = the reader captures the
    seqid, R2 = its lookup reads the journal."""

    WRITTEN = 3

    def _stack(self):
        stack = _Stack(users=6, regions=2, nodes=2)
        for region in stack.visits.table.regions:
            region._memstores[FAMILY] = _HookedMemStore()
        rng = random.Random(5)
        for _ in range(40):
            stack.write(rng)
        self.query = SearchQuery(
            friend_ids=tuple(range(1, stack.users + 1)), sort_by="interest"
        )
        for _ in range(3):
            warm = stack.qa.search(self.query)
        assert (warm.cache_hits, warm.cache_misses) == (stack.users, 0)
        self.region = stack.visits.table.region_for_row(
            VisitsRepository.row_key(self.WRITTEN, 0, 0)
        )
        return stack

    def _visit(self, stack, batch=False):
        """One more visit of ``WRITTEN``, by put or as a two-cell batch."""
        name, lat, lon, keywords = POIS[2]
        cells = []
        for _ in range(2 if batch else 1):
            stack._ts += 1
            cells.append(stack.visits.visit_cell(VisitStruct(
                user_id=self.WRITTEN, poi_id=2, timestamp=stack._ts,
                grade=3.25, poi_name=name, lat=lat, lon=lon,
                keywords=keywords,
            )))
        if batch:
            self.region.put_batch(cells)
        else:
            self.region.put(cells[0])

    def _served_after(self, stack):
        """The put has completed: the written friend is rescanned, and
        only that friend."""
        after = stack.qa.search(self.query)
        assert (after.cache_hits, after.cache_misses) == (stack.users - 1, 1)
        assert _pois_fingerprint(after) == _pois_fingerprint(
            stack.oracle(self.query)
        )
        again = stack.qa.search(self.query)
        assert (again.cache_hits, again.cache_misses) == (stack.users, 0)
        assert _pois_fingerprint(again) == _pois_fingerprint(after)

    @pytest.mark.parametrize("batch", [False, True])
    def test_put_entirely_before_the_lookup(self, batch):
        stack = self._stack()
        before = _pois_fingerprint(stack.oracle(self.query))
        self._visit(stack, batch)
        assert _pois_fingerprint(stack.oracle(self.query)) != before
        self._served_after(stack)

    @pytest.mark.parametrize("batch", [False, True])
    def test_lookup_between_apply_and_announce(self, batch):
        """W1 R1 R2 W2.  The reader may serve the friend's old entry —
        the put is still in flight — but its answer is one of the two
        consistent ones, and the put's completion then evicts both the
        old entry and anything the reader filled."""
        stack = self._stack()
        before = _pois_fingerprint(stack.oracle(self.query))
        seen = []

        def reader():
            seen.append(stack.qa.search(self.query))
            seen.append(_pois_fingerprint(stack.oracle(self.query)))

        self.region._memstores[FAMILY].after_apply = reader
        seqid = self.region.data_seqid
        self._visit(stack, batch)
        in_flight, after = seen
        assert self.region.data_seqid > seqid  # announced only afterwards
        assert after != before
        assert in_flight.cache_hits == stack.users  # in flight: old entry
        assert _pois_fingerprint(in_flight) == before
        self._served_after(stack)

    def test_put_between_the_readers_two_reads(self):
        """R1 W1 W2 R2.  The lookup sees the row and evicts its owner,
        but the seqid captured before it is already stale: the reader
        neither reads nor fills, and the next one is served."""
        stack = self._stack()
        region = self.region
        written_since = region.written_since

        def put_then_answer(mark):
            region.written_since = written_since  # once
            self._visit(stack)
            return written_since(mark)

        region.written_since = put_then_answer
        racing = stack.qa.search(self.query)
        in_region = len(stack.visits.route_friends(self.query.friend_ids)[region])
        assert (racing.cache_hits, racing.cache_misses) == (
            stack.users - in_region, in_region
        )
        assert _pois_fingerprint(racing) == _pois_fingerprint(
            stack.oracle(self.query)
        )
        assert stack.scan_cache.stats()["evicted_by_write"] == 1
        self._served_after(stack)

    def test_put_entirely_after_the_lookup(self):
        """R1 R2 … W1 W2, the put landing while the reader folds: it
        stops reading and filling there, its answer is one of the two
        consistent ones, and the next lookup evicts the written friend."""
        stack = self._stack()
        # A window nobody queried yet: every friend is scanned, so the
        # hook fires inside the fold, after the lookup.
        self.query = SearchQuery(
            friend_ids=self.query.friend_ids, sort_by="interest", since=1
        )
        stack.qa.search(self.query)  # regions are admitted already: fills
        warm = stack.qa.search(self.query)
        assert warm.cache_misses == 0
        before = _pois_fingerprint(stack.oracle(self.query))
        # Evict one friend of the region so its next invocation scans.
        self._visit(stack)
        between = _pois_fingerprint(stack.oracle(self.query))
        self.region._memstores[FAMILY].before_slice = (
            lambda: self._visit(stack)
        )
        racing = stack.qa.search(self.query)
        after = _pois_fingerprint(stack.oracle(self.query))
        assert len({tuple(before), tuple(between), tuple(after)}) == 3
        assert _pois_fingerprint(racing) in (between, after)
        self._served_after(stack)


# --------------------------------------------------------------------------
# Differential state machine: every mutation kind, every query shape.
# --------------------------------------------------------------------------

MACHINE_USERS = 6
MACHINE_JOURNAL_MAX = 6
#: Few timestamps, so puts overwrite, tombstones find their target and
#: bulk-loaded rows collide with written ones.
MACHINE_TS = st.integers(min_value=1, max_value=12)
MACHINE_USER = st.integers(min_value=1, max_value=MACHINE_USERS)
MACHINE_POI = st.sampled_from(sorted(POIS))
MACHINE_GRADE = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
MACHINE_VISIT = st.tuples(MACHINE_USER, MACHINE_TS, MACHINE_POI, MACHINE_GRADE)
#: Windows repeat, so one friend holds entries under several.
MACHINE_WINDOWS = [(None, None), (None, None), (3, None), (None, 9), (2, 7)]


class ScanCacheMachine(RuleBasedStateMachine):
    """One two-region visits table under the scan cache, next to a
    model of what the cache may hold: per region, whether its journal
    has followed every write since the generation was opened, the owners
    written since the last lookup, and the ``(friend, window)`` keys
    filled.  Every query must (a) answer exactly what a cache-off run
    answers and (b) hit exactly the keys the model says are current."""

    def __init__(self):
        super().__init__()
        self._journal_max = mock.patch.object(
            region_mod, "JOURNAL_MAX", MACHINE_JOURNAL_MAX
        )
        self._journal_max.start()
        self.stack = _Stack(users=MACHINE_USERS, regions=2, nodes=2)
        self.regions = self.stack.visits.table.regions
        ids = [region.region_id for region in self.regions]
        #: The region has a generation whose mark its journal resolves.
        self.followed = dict.fromkeys(ids, False)
        self.entries = {rid: set() for rid in ids}
        self.stale = {rid: set() for rid in ids}
        self.journal = dict.fromkeys(ids, 0)
        self.memstore = dict.fromkeys(ids, 0)
        self.ttl = dict.fromkeys(ids, 0)

    def teardown(self):
        self._journal_max.stop()

    # ------------------------------------------------------------ model

    def _region_of(self, user_id):
        return self.stack.visits.table.region_for_row(
            VisitsRepository.row_key(user_id, 0, 0)
        )

    def _wrote(self, region, owners):
        rid = region.region_id
        self.memstore[rid] += len(owners)
        if self.journal[rid] + len(owners) > MACHINE_JOURNAL_MAX:
            self._structural(region)
        else:
            self.journal[rid] += len(owners)
            self.stale[rid].update(owners)

    def _structural(self, region):
        self.journal[region.region_id] = 0
        self.followed[region.region_id] = False

    def _cell(self, user_id, ts, poi_id, grade):
        name, lat, lon, keywords = POIS[poi_id]
        return self.stack.visits.visit_cell(VisitStruct(
            user_id=user_id, poi_id=poi_id, timestamp=ts, grade=grade,
            poi_name=name, lat=lat, lon=lon, keywords=keywords,
        ))

    # ------------------------------------------------------------ rules

    @rule(visit=MACHINE_VISIT)
    def put(self, visit):
        region = self._region_of(visit[0])
        region.put(self._cell(*visit))
        self._wrote(region, [visit[0]])

    @rule(user_id=MACHINE_USER, ts=MACHINE_TS, poi_id=MACHINE_POI)
    def delete(self, user_id, ts, poi_id):
        region = self._region_of(user_id)
        region.delete(
            VisitsRepository.row_key(user_id, ts, poi_id), FAMILY, QUALIFIER, ts
        )
        self._wrote(region, [user_id])

    @rule(visits=st.lists(MACHINE_VISIT, min_size=1, max_size=9))
    def put_batch(self, visits):
        """Up to nine cells: one batch can overflow a region's journal
        on its own."""
        for region in self.regions:
            mine = [v for v in visits if self._region_of(v[0]) is region]
            if mine:
                region.put_batch([self._cell(*v) for v in mine])
                self._wrote(region, [v[0] for v in mine])

    @rule(index=st.integers(0, 1))
    def flush(self, index):
        region = self.regions[index]
        region.flush()
        if self.memstore[region.region_id]:
            self.memstore[region.region_id] = 0
            self._structural(region)

    @rule(index=st.integers(0, 1))
    def minor_compact(self, index):
        region = self.regions[index]
        merges = region.store_file_count(FAMILY) > 1
        region.minor_compact(FAMILY)
        if merges:
            self._structural(region)

    @rule(index=st.integers(0, 1))
    def major_compact(self, index):
        region = self.regions[index]
        region.compact()
        self.memstore[region.region_id] = 0
        self._structural(region)

    @rule(index=st.integers(0, 1), cutoff=st.integers(0, 8))
    def set_ttl_cutoff(self, index, cutoff):
        region = self.regions[index]
        region.set_ttl_cutoff(FAMILY, cutoff)
        if cutoff > self.ttl[region.region_id]:
            self.ttl[region.region_id] = cutoff
            self._structural(region)

    @rule(index=st.integers(0, 1))
    def crash_and_replay(self, index):
        region = self.regions[index]
        region.crash()
        self.memstore[region.region_id] = region.replay_cells(
            region.wal.replay()
        )
        self._structural(region)

    @rule(visits=st.lists(MACHINE_VISIT, min_size=1, max_size=6))
    def bulk_load(self, visits):
        for region in self.regions:
            cells = {
                cell.sort_key(): cell
                for cell in (
                    self._cell(*v)
                    for v in visits
                    if self._region_of(v[0]) is region
                )
            }
            if cells:
                region.bulk_load(FAMILY, [cells[key] for key in sorted(cells)])
                self._structural(region)

    @rule(
        friends=st.lists(MACHINE_USER, min_size=1, unique=True),
        window=st.sampled_from(MACHINE_WINDOWS),
        topk=st.booleans(),
        sort_by=st.sampled_from(["interest", "hotness"]),
        keywords=st.sampled_from(KEYWORD_CHOICES),
    )
    def query(self, friends, window, topk, sort_by, keywords):
        since, until = window
        query = SearchQuery(
            friend_ids=tuple(friends), since=since, until=until,
            sort_by=sort_by, keywords=keywords, limit=3,
        )
        hits = 0
        for friend in friends:
            rid = self._region_of(friend).region_id
            if not self.followed[rid]:
                continue  # opened below: every friend of it misses
            entries, stale = self.entries[rid], self.stale[rid]
            if stale:
                entries.difference_update(
                    [key for key in entries if key[0] in stale]
                )
                stale.clear()
            key = (friend, since, until)
            if key in entries:
                hits += 1
            else:
                entries.add(key)
        for rid in {self._region_of(friend).region_id for friend in friends}:
            if not self.followed[rid]:
                self.followed[rid] = True
                self.entries[rid].clear()
                self.stale[rid].clear()
        self.stack.topk_cfg.enabled = topk
        cached = self.stack.qa.search(query)
        assert _pois_fingerprint(cached) == _pois_fingerprint(
            self.stack.oracle(query)
        )
        assert (cached.cache_hits, cached.cache_misses) == (
            hits, len(friends) - hits
        )
        # Entries only ever change at their region's lookup.
        assert len(self.stack.scan_cache) == sum(map(len, self.entries.values()))
        for region in self.regions:
            assert len(region._journal) <= MACHINE_JOURNAL_MAX


ScanCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestScanCacheMachine = ScanCacheMachine.TestCase


def test_scan_cache_machine_fixed_seed_corpus():
    """The machine's rules under a plain seeded driver: the same
    sequences on every run, whatever hypothesis explores or remembers.
    One mutation per two queries, most of them single puts — entries
    live long enough to be hit, written and overflowed."""
    rare = [
        lambda m, r: m.delete(*_corpus_visit(r)[:3]),
        lambda m, r: m.put_batch(
            [_corpus_visit(r) for _ in range(r.randrange(1, 10))]
        ),
        lambda m, r: m.flush(r.randrange(2)),
        lambda m, r: m.minor_compact(r.randrange(2)),
        lambda m, r: m.major_compact(r.randrange(2)),
        lambda m, r: m.set_ttl_cutoff(r.randrange(2), r.randrange(9)),
        lambda m, r: m.crash_and_replay(r.randrange(2)),
        lambda m, r: m.bulk_load(
            [_corpus_visit(r) for _ in range(r.randrange(1, 7))]
        ),
    ]
    totals = dict.fromkeys(
        ("hits", "misses", "evicted_by_write", "journal_overflows",
         "invalidations"), 0
    )
    for seed in range(40):
        rng = random.Random(seed)
        machine = ScanCacheMachine()
        try:
            for _ in range(12):
                machine.put(_corpus_visit(rng))
            for step in range(90):
                if step % 3:
                    machine.query(
                        rng.sample(
                            range(1, MACHINE_USERS + 1),
                            rng.randrange(1, MACHINE_USERS + 1),
                        ),
                        rng.choice(MACHINE_WINDOWS),
                        rng.random() < 0.5,
                        rng.choice(("interest", "hotness")),
                        rng.choice(KEYWORD_CHOICES),
                    )
                elif rng.random() < 0.7:
                    machine.put(_corpus_visit(rng))
                else:
                    rng.choice(rare)(machine, rng)
            stats = machine.stack.scan_cache.stats()
            for name in totals:
                totals[name] += stats[name]
        finally:
            machine.teardown()
    # Not vacuous: entries survived writes to their regions, and every
    # way of losing one happened.
    assert totals["hits"] > totals["misses"] / 2, totals
    assert min(totals.values()) > 40, totals


def _corpus_visit(rng):
    return (
        rng.randrange(1, MACHINE_USERS + 1),
        rng.randrange(1, 13),
        rng.choice(sorted(POIS)),
        rng.uniform(0.0, 5.0),
    )
