"""Tests for client-side friend-to-region routing (the route-then-stream
personalized query fan-out) and the ``time_range_keys`` stop-key fix.

Routing must be an invisible optimization: the routed coprocessor path
and the client-side baseline must return the same ranked answer, with
routing only changing *which* regions get invoked.
"""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MoDisSENSE, RestApi
from repro.config import ClusterConfig, PlatformConfig
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
)
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.geo import BoundingBox
from repro.hbase import (
    Cell,
    HBaseCluster,
    HTable,
    TableDescriptor,
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


def reference_range_keys(uid, since, until):
    """``time_range_keys`` as the plain formula: compose, encode,
    ``next_prefix`` — nothing packed or memoized."""
    prefix = compose_key(salt_for(uid), encode_int(uid))
    if until is not None and until <= 0:
        return (prefix, prefix)
    if until is not None:
        start = compose_key(prefix, encode_int_desc(until - 1))
    else:
        start = compose_key(prefix, b"")
    if since is not None and since > 0:
        stop = next_prefix(compose_key(prefix, encode_int_desc(since)))
    else:
        stop = next_prefix(prefix)
    return (start, stop if stop else None)


def range_router(table, friend_ids, since=None, until=None):
    """Friend routing as it was before the salt map: each friend's key
    range bisected against the region start keys, one friend at a time.
    The reference salt routing must equal, order included."""
    routed = {}
    for friend_id in friend_ids:
        start, stop = reference_range_keys(friend_id, since, until)
        if start == stop:
            continue  # empty window: no region needs this friend
        for region in table.regions_for_range(start, stop):
            routed.setdefault(region, []).append(friend_id)
    return routed


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
        """The packed user prefix and the window suffixes must give
        exactly the keys of the plain formula — first call and repeat
        calls, every window shape, the top-of-keyspace user included."""
        reference = reference_range_keys
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


MAX64 = (1 << 64) - 1
#: Friend ids: a small pool (so lists repeat ids), the edges of the id
#: space and the top-salt user, and anything in between.
FRIEND_ID = st.one_of(
    st.integers(0, 300),
    st.sampled_from([0, 1, TOP_SALT_UID, MAX64 - 1, MAX64]),
    st.integers(0, MAX64),
)
FRIENDS = st.lists(FRIEND_ID, max_size=60)
#: Window bounds: open, the empty ``until <= 0``, values whose
#: descending encoding ends in 0xff (256: ``next_prefix`` truncates, so
#: ``since == until`` is *not* an empty key range there), both
#: extremes.  Drawn independently, so ``since == until`` and inverted
#: windows come up.
BOUND = st.one_of(
    st.none(),
    st.sampled_from([-3, 0, 1, 50, 255, 256, 257, 512, 9000, 1 << 32, MAX64]),
    st.integers(-10, 1 << 20),
)


def split_point_in(uid, length, tail):
    """A split point inside the key space of ``uid``: the first
    ``length`` bytes of one of its row keys plus ``tail`` — it may cut
    the user's salt, or the user's own key range."""
    return VisitsRepository.row_key(uid, 700, 5)[:length] + tail


SPLIT_POINTS = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=4),
        st.builds(
            split_point_in,
            FRIEND_ID,
            st.integers(1, 29),
            st.binary(max_size=2),
        ),
    ),
    max_size=12,
).map(lambda points: sorted(set(points)))


class TestSaltRoutingEqualsRangeRouting:
    """``route_friends`` resolves a friend through the table's salt map
    and keeps the per-friend key-range path for salts a split point
    cuts.  Over any layout, friend list and window it must return what
    the range router returned: the same regions, in the same dict order,
    with the same buckets in the same order."""

    #: One repository for every example; each points it at its table.
    repo = VisitsRepository(
        HBaseCluster(ClusterConfig(num_nodes=1, regions_per_table=1)),
        num_regions=1,
    )

    @staticmethod
    def outcome(route, table, friends, since, until):
        try:
            return list(route(table, friends, since, until).items())
        except Exception as exc:  # both must fail alike, if at all
            return (type(exc), str(exc))

    def check(self, table, friends, since, until):
        repo = self.repo
        repo.table = table

        def salt_router(table, friends, since, until):
            return repo.route_friends(friends, since, until)

        assert self.outcome(
            salt_router, table, friends, since, until
        ) == self.outcome(range_router, table, friends, since, until)

    @settings(max_examples=150, deadline=None)
    @given(regions=st.integers(1, 64), friends=FRIENDS, since=BOUND,
           until=BOUND)
    @example(regions=32, friends=[TOP_SALT_UID, 1, 1], since=256, until=256)
    @example(regions=8, friends=[3, 2, 3], since=9, until=5)
    @example(regions=8, friends=[3], since=None, until=0)
    @example(regions=8, friends=[3], since=50, until=50)
    def test_uniform_presplits(self, regions, friends, since, until):
        table = HTable(TableDescriptor("v", ["v"], num_regions=regions))
        assert len(table.regions) not in table.salt_slots  # no salt cut
        self.check(table, friends, since, until)

    @settings(max_examples=200, deadline=None)
    @given(points=SPLIT_POINTS, friends=FRIENDS, since=BOUND, until=BOUND)
    @example(points=[b"\x80", b"\x80\x01", b"\x80\x01\x00"],
             friends=[0, 1, 2], since=None, until=None)
    def test_explicit_split_points(self, points, friends, since, until):
        table = HTable(TableDescriptor("v", ["v"], split_points=points))
        self.check(table, friends, since, until)

    @settings(max_examples=60, deadline=None)
    @given(
        regions=st.integers(1, 16),
        users=st.lists(FRIEND_ID, min_size=2, max_size=12, unique=True),
        splits=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=4),
        friends=FRIENDS,
        since=BOUND,
        until=BOUND,
    )
    def test_after_midpoint_splits(
        self, regions, users, splits, friends, since, until
    ):
        """``split_region`` cuts at a median row key: inside a salt,
        and inside one user's own range when that user holds the
        median.  The friend list includes the users whose rows were
        split, so straddling ranges are routed."""
        table = HTable(TableDescriptor("v", ["v"], num_regions=regions))
        for uid in users:
            for ts in (100, 200, 300):
                table.put(Cell(
                    row=VisitsRepository.row_key(uid, ts, uid % 7),
                    family="v", qualifier=b"v", timestamp=ts, value=b"",
                ))
        for pick in splits:
            table.split_region(table.regions[pick % len(table.regions)])
        self.check(table, users + friends, since, until)


class TestOutOfRangeFriendIds:
    """An id outside [0, 2**64) is no user: the REST boundary answers
    ``bad_request`` naming the first such id, as it always has.  Routing
    by salt alone would hash it into some region and report the scan's
    failure there as a degraded ``ok`` with partial coverage."""

    CASES = [
        ([2, -1], "cannot byte-encode negative int -1"),
        ([3, 2 ** 64], "%d does not fit in 8 bytes" % 2 ** 64),
        ([2 ** 70], "%d does not fit in 8 bytes" % 2 ** 70),
    ]

    @pytest.fixture(scope="class")
    def rest(self):
        from repro.datagen import generate_pois, generate_visits

        platform = MoDisSENSE(PlatformConfig.small())
        pois = generate_pois(count=50, seed=9)
        platform.load_pois(pois)
        platform.load_visits(
            generate_visits(range(1, 21), pois, seed=9, mean=4.0, std=1.0)
        )
        yield RestApi(platform)
        platform.shutdown()

    @pytest.mark.parametrize("endpoint", ["search", "explain"])
    @pytest.mark.parametrize("friend_ids,message", CASES)
    def test_is_a_bad_request(self, rest, endpoint, friend_ids, message):
        body = json.dumps({"friend_ids": friend_ids})
        assert json.loads(rest.handle_json(endpoint, body)) == {
            "status": "error",
            "error": {"code": "bad_request", "message": message},
        }
