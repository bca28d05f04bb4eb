"""Tests for client-side friend-to-region routing (the route-then-stream
personalized query fan-out) and the ``time_range_keys`` stop-key fix.

Routing must be an invisible optimization: the routed coprocessor path,
the broadcast path and the client-side baseline must all return the same
ranked answer, with routing only changing *which* regions get invoked.
"""

import random

import pytest

from repro.config import ClusterConfig
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
    _VisitScanRequest,
)
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.geo import BoundingBox
from repro.hbase import (
    HBaseCluster,
    compose_key,
    encode_int,
    encode_int_desc,
    next_prefix,
)
from repro.hbase.bytes_util import salt_for
from repro.sqlstore import SqlEngine

#: First user id whose salt is ``0xffff`` — its rows live at the very top
#: of the key space, the range the seed's ``b"\xff" * 12`` stop-key
#: sentinel could not bound correctly.
TOP_SALT_UID = 46368


def build_module(num_regions=8, num_users=40, num_pois=12, seed=9):
    cluster = HBaseCluster(
        ClusterConfig(num_nodes=4, regions_per_table=num_regions)
    )
    pois = POIRepository(SqlEngine())
    visits = VisitsRepository(cluster, num_regions=num_regions)
    rng = random.Random(seed)
    poi_info = {}
    for pid in range(1, num_pois + 1):
        lat = rng.uniform(35.0, 41.0)
        lon = rng.uniform(20.0, 26.0)
        kws = tuple(rng.sample(("food", "coffee", "bar", "museum"), 2))
        poi_info[pid] = ("poi-%d" % pid, lat, lon, kws)
        pois.add(POI(poi_id=pid, name=poi_info[pid][0], lat=lat, lon=lon,
                     keywords=kws, category="misc"))
    for uid in range(1, num_users + 1):
        for _ in range(rng.randint(1, 6)):
            pid = rng.randint(1, num_pois)
            name, lat, lon, kws = poi_info[pid]
            visits.store(VisitStruct(
                user_id=uid, poi_id=pid, timestamp=rng.randint(1, 10_000),
                grade=round(rng.uniform(0.0, 1.0), 3), poi_name=name,
                lat=lat, lon=lon, keywords=kws,
            ))
    return QueryAnsweringModule(pois, visits), cluster


def ranked(result):
    return [(p.poi_id, pytest.approx(p.score), p.visit_count)
            for p in result.pois]


class TestRouteFriends:
    def test_every_friend_lands_in_its_owning_region(self):
        qa, cluster = build_module()
        visits = qa.visits
        friends = list(range(1, 41))
        routed = visits.route_friends(friends)
        covered = [f for bucket in routed.values() for f in bucket]
        assert sorted(covered) == friends  # no friend lost or doubled
        for region, bucket in routed.items():
            for friend in bucket:
                start, _ = visits.time_range_keys(friend, None, None)
                assert region.contains_row(start)

    def test_regions_without_friends_are_absent(self):
        qa, cluster = build_module()
        routed = qa.visits.route_friends([1])
        assert len(routed) == 1

    def test_empty_window_routes_nowhere(self):
        qa, cluster = build_module()
        assert qa.visits.route_friends([1, 2, 3], until=0) == {}
        assert qa.visits.route_friends([1, 2, 3], since=50, until=50) == {}


class TestRoutedEqualsBroadcast:
    """Same answers through every execution strategy, with filters on."""

    QUERIES = [
        SearchQuery(friend_ids=tuple(range(1, 31)), sort_by="interest"),
        SearchQuery(friend_ids=tuple(range(5, 25)), sort_by="hotness"),
        SearchQuery(friend_ids=tuple(range(1, 41)),
                    bbox=BoundingBox(36.0, 21.0, 39.0, 24.0)),
        SearchQuery(friend_ids=tuple(range(1, 41)), keywords=("coffee",)),
        SearchQuery(friend_ids=tuple(range(1, 41)), since=2000, until=8000),
    ]

    def test_routed_matches_client_side_baseline(self):
        qa, cluster = build_module()
        for query in self.QUERIES:
            routed = qa.search(query)
            baseline = qa.search_personalized_client_side(query)
            assert ranked(routed) == ranked(baseline), query

    def test_routed_matches_broadcast_fanout(self):
        qa, cluster = build_module()
        for query in self.QUERIES:
            routed = qa.search(query)
            # Broadcast: ship the full friend list to every region and
            # let the endpoint probe ownership per friend (seed path).
            request = _VisitScanRequest(
                friend_ids=tuple(query.friend_ids),
                bbox=query.bbox.as_tuple() if query.bbox else None,
                keywords=query.keywords,
                since=query.since,
                until=query.until,
                routed=False,
            )
            call = cluster.coprocessor_exec(
                qa.visits.table.name, qa._coprocessor, request
            )
            broadcast = qa.merge_and_rank(query, call)
            assert ranked(routed) == ranked(broadcast), query
            assert call.regions_pruned == 0  # broadcast prunes nothing

    def test_pruning_is_reported(self):
        qa, cluster = build_module()
        res = qa.search(SearchQuery(friend_ids=(1,)))
        assert res.regions_used == 1
        assert res.regions_pruned == 7
        wide = qa.search(SearchQuery(friend_ids=tuple(range(1, 41))))
        assert wide.regions_used + wide.regions_pruned == 8
        assert wide.regions_used > 1

    def test_empty_window_query_invokes_no_region(self):
        qa, cluster = build_module()
        res = qa.search(SearchQuery(friend_ids=(1, 2, 3), until=0))
        assert res.pois == []
        assert res.regions_used == 0
        assert res.regions_pruned == 8


class TestStopKeyRegression:
    """``time_range_keys`` must bound (or leave open) the top of the key
    space correctly.  The seed fell back to a ``b"\\xff" * 12`` stop
    sentinel, which sorts *below* any 29-byte row key sharing its first
    12 bytes — tail-of-keyspace rows could silently fall out of scans.
    """

    def test_top_salt_uid_has_max_salt(self):
        assert salt_for(TOP_SALT_UID) == b"\xff\xff"

    def test_open_ended_stop_is_none_or_above_all_rows(self):
        row_key = VisitsRepository.row_key
        max64 = (1 << 64) - 1
        for uid in (1, TOP_SALT_UID, max64):
            start, stop = VisitsRepository.time_range_keys(uid, None, None)
            for ts in (0, 1, max64):
                for poi in (0, max64):
                    row = row_key(uid, ts, poi)
                    assert start <= row
                    assert stop is None or row < stop, (uid, ts, poi)

    def test_top_of_keyspace_user_is_scanned_and_routed(self):
        qa, cluster = build_module()
        visits = qa.visits
        visits.store(VisitStruct(user_id=TOP_SALT_UID, poi_id=1,
                                 timestamp=500, grade=1.0,
                                 poi_name="poi-1", lat=36.0, lon=22.0))
        got = list(visits.visits_of_user(TOP_SALT_UID))
        assert [(v.timestamp, v.poi_id) for v in got] == [(500, 1)]
        routed = visits.route_friends([TOP_SALT_UID])
        (region, bucket), = routed.items()
        assert bucket == [TOP_SALT_UID]
        # Max salt lands in the table's last region (open end key).
        assert region.end_key is None
        res = qa.search(SearchQuery(friend_ids=(TOP_SALT_UID,)))
        assert [p.poi_id for p in res.pois] == [1]

    def test_memoized_keys_equal_the_unmemoized_formula(self):
        """The per-user key memo must route exactly as the formula it
        replaced — first call and repeat calls, every window shape, the
        top-of-keyspace user included."""

        def reference(uid, since, until):
            prefix = compose_key(salt_for(uid), encode_int(uid))
            if until is not None and until <= 0:
                return (prefix, prefix)
            if until is not None:
                start = compose_key(prefix, encode_int_desc(until - 1))
            else:
                start = compose_key(prefix, b"")
            if since is not None and since > 0:
                stop = next_prefix(
                    compose_key(prefix, encode_int_desc(since))
                )
            else:
                stop = next_prefix(prefix)
            return (start, stop if stop else None)

        max64 = (1 << 64) - 1
        windows = [(None, None), (0, None), (1, None), (5, None),
                   (256, None), (max64, None), (None, 1), (None, 9),
                   (5, 9), (9, 5), (None, 0), (None, -3), (5, -3), (7, 7),
                   (1_412_000_000, 1_430_000_000)]
        for _repeat in range(2):
            for uid in (0, 1, 255, TOP_SALT_UID, max64):
                assert VisitsRepository.user_prefix(uid) == compose_key(
                    salt_for(uid), encode_int(uid)
                )
                for since, until in windows:
                    assert VisitsRepository.time_range_keys(
                        uid, since, until
                    ) == reference(uid, since, until), (uid, since, until)

    def test_degenerate_windows_yield_empty_ranges(self):
        tk = VisitsRepository.time_range_keys
        for uid in (1, TOP_SALT_UID):
            start, stop = tk(uid, None, 0)
            assert start == stop  # until <= 0: nothing can match
            start, stop = tk(uid, 77, 77)
            assert stop is not None and stop <= start  # since == until
