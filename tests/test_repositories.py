"""Tests for the six datastore repositories."""

import pytest

from repro.config import ClusterConfig
from repro.core.repositories import (
    BlogVisit,
    BlogsRepository,
    CommentRecord,
    GPSTracesRepository,
    POI,
    POIRepository,
    SocialInfoRepository,
    TextRepository,
    VisitsRepository,
)
from repro.core.repositories.visits import VisitStruct
from repro.datagen.gps import GPSPoint
from repro.errors import QueryError, SchemaError, ValidationError
from repro.geo import BoundingBox, GeoPoint
from repro.hbase import HBaseCluster
from repro.social import FriendInfo
from repro.sqlstore import SqlEngine


@pytest.fixture()
def cluster():
    return HBaseCluster(ClusterConfig(num_nodes=2, regions_per_table=4))


@pytest.fixture()
def poi_repo():
    return POIRepository(SqlEngine())


def make_poi(poi_id, lat=37.98, lon=23.73, **kwargs):
    defaults = dict(
        name="POI %d" % poi_id,
        keywords=("food", "dinner"),
        category="restaurant",
    )
    defaults.update(kwargs)
    return POI(poi_id=poi_id, lat=lat, lon=lon, **defaults)


class TestPOIRepository:
    def test_add_get(self, poi_repo):
        poi_repo.add(make_poi(1))
        got = poi_repo.get(1)
        assert got.name == "POI 1"
        assert poi_repo.get(99) is None

    def test_duplicate_id_rejected(self, poi_repo):
        poi_repo.add(make_poi(1))
        with pytest.raises(SchemaError):
            poi_repo.add(make_poi(1))

    def test_update_hotin(self, poi_repo):
        poi_repo.add(make_poi(1))
        assert poi_repo.update_hotin(1, hotness=12.0, interest=0.8)
        got = poi_repo.get(1)
        assert got.hotness == 12.0
        assert got.interest == 0.8
        assert not poi_repo.update_hotin(99, 1.0, 1.0)

    def test_search_bbox_and_keywords(self, poi_repo):
        poi_repo.add(make_poi(1, lat=37.98, lon=23.73, keywords=("food",)))
        poi_repo.add(make_poi(2, lat=40.64, lon=22.94, keywords=("food",)))
        poi_repo.add(make_poi(3, lat=37.99, lon=23.74, keywords=("coffee",)))
        athens = BoundingBox(37.9, 23.6, 38.1, 23.8)
        found = poi_repo.search(bbox=athens, keywords=["food"])
        assert [p.poi_id for p in found] == [1]

    def test_search_sorting(self, poi_repo):
        poi_repo.add(make_poi(1, hotness=1.0, interest=0.9))
        poi_repo.add(make_poi(2, lat=37.97, hotness=5.0, interest=0.2))
        by_hot = poi_repo.search(sort_by="hotness", limit=1)
        assert by_hot[0].poi_id == 2
        by_interest = poi_repo.search(sort_by="interest", limit=1)
        assert by_interest[0].poi_id == 1

    def test_invalid_sort_rejected(self, poi_repo):
        with pytest.raises(QueryError):
            poi_repo.search(sort_by="bogus")

    def test_nearest_within(self, poi_repo):
        poi_repo.add(make_poi(1, lat=37.9800, lon=23.7300))
        poi_repo.add(make_poi(2, lat=37.9810, lon=23.7310))
        near = poi_repo.nearest_within(GeoPoint(37.9801, 23.7301), radius_m=200)
        assert near.poi_id == 1
        assert poi_repo.nearest_within(GeoPoint(40.0, 25.0), radius_m=100) is None

    def test_next_poi_id(self, poi_repo):
        assert poi_repo.next_poi_id() == 1
        poi_repo.add(make_poi(41))
        assert poi_repo.next_poi_id() == 42


class TestSocialInfoRepository:
    def test_store_and_get(self, cluster):
        repo = SocialInfoRepository(cluster)
        friends = [FriendInfo("fb_%d" % i, "F%d" % i, "pic%d" % i) for i in range(50)]
        repo.store_friends(1, "facebook", friends, timestamp=10)
        got = repo.get_friends(1, "facebook")
        assert got == friends
        assert repo.get_friends(1, "twitter") == []
        assert repo.get_friends(2, "facebook") == []

    def test_multiple_networks(self, cluster):
        repo = SocialInfoRepository(cluster)
        repo.store_friends(1, "facebook", [FriendInfo("fb_2", "A", "p")], 10)
        repo.store_friends(1, "twitter", [FriendInfo("tw_3", "B", "p")], 11)
        assert repo.linked_networks(1) == ["facebook", "twitter"]
        both = repo.get_all_friends(1)
        assert set(both) == {"facebook", "twitter"}

    def test_newer_list_replaces(self, cluster):
        repo = SocialInfoRepository(cluster)
        repo.store_friends(1, "facebook", [FriendInfo("fb_2", "A", "p")], 10)
        repo.store_friends(1, "facebook", [FriendInfo("fb_3", "B", "p")], 20)
        got = repo.get_friends(1, "facebook")
        assert [f.network_user_id for f in got] == ["fb_3"]


class TestTextRepository:
    def test_store_and_query_by_user_poi_time(self, cluster):
        repo = TextRepository(cluster)
        for ts in (100, 200, 300):
            repo.store(CommentRecord(1, 7, ts, "text@%d" % ts, 0.7))
        repo.store(CommentRecord(1, 8, 150, "other poi", 0.3))
        repo.store(CommentRecord(2, 7, 150, "other user", 0.4))
        got = repo.comments(1, 7, since=100, until=300)
        assert [c.timestamp for c in got] == [100, 200]
        assert all(c.user_id == 1 and c.poi_id == 7 for c in got)

    def test_unbounded_window(self, cluster):
        repo = TextRepository(cluster)
        repo.store(CommentRecord(1, 7, 100, "a", 0.5))
        assert len(repo.comments(1, 7)) == 1

    def test_user_comments_across_pois(self, cluster):
        repo = TextRepository(cluster)
        repo.store(CommentRecord(1, 7, 100, "a", 0.5))
        repo.store(CommentRecord(1, 9, 200, "b", 0.5))
        repo.store(CommentRecord(3, 7, 100, "c", 0.5))
        got = repo.user_comments(1)
        assert {c.poi_id for c in got} == {7, 9}
        bounded = repo.user_comments(1, since=150)
        assert [c.poi_id for c in bounded] == [9]

    def test_roundtrip_with_awkward_ids(self, cluster):
        # ids whose byte encoding contains the separator byte 0x1f.
        repo = TextRepository(cluster)
        repo.store(CommentRecord(31, 0x1F1F, 0x1F, "tricky", 0.9))
        got = repo.comments(31, 0x1F1F)
        assert len(got) == 1
        assert got[0].timestamp == 0x1F
        assert got[0].text == "tricky"


class TestVisitsRepository:
    def test_store_and_scan_newest_first(self, cluster):
        repo = VisitsRepository(cluster, num_regions=4)
        for ts in (100, 300, 200):
            repo.store(VisitStruct(user_id=5, poi_id=ts, timestamp=ts, grade=0.5))
        got = repo.visits_of_user(5)
        assert [v.timestamp for v in got] == [300, 200, 100]

    def test_time_window_is_key_range(self, cluster):
        repo = VisitsRepository(cluster, num_regions=4)
        for ts in range(100, 200, 10):
            repo.store(VisitStruct(user_id=5, poi_id=ts, timestamp=ts, grade=0.5))
        got = repo.visits_of_user(5, since=120, until=160)
        assert [v.timestamp for v in got] == [150, 140, 130, 120]

    def test_users_isolated(self, cluster):
        repo = VisitsRepository(cluster, num_regions=4)
        repo.store(VisitStruct(user_id=1, poi_id=1, timestamp=100, grade=0.1))
        repo.store(VisitStruct(user_id=2, poi_id=2, timestamp=100, grade=0.2))
        assert [v.poi_id for v in repo.visits_of_user(1)] == [1]
        assert [v.poi_id for v in repo.visits_of_user(2)] == [2]

    def test_replicated_schema_carries_poi_info(self, cluster):
        repo = VisitsRepository(cluster, num_regions=4)
        repo.store(
            VisitStruct(
                user_id=1, poi_id=7, timestamp=100, grade=0.9,
                poi_name="Taverna", lat=37.98, lon=23.73,
                keywords=("food",),
            )
        )
        got = repo.visits_of_user(1)[0]
        assert got.poi_name == "Taverna"
        assert got.keywords == ("food",)

    def test_normalized_schema_drops_poi_info(self, cluster):
        repo = VisitsRepository(cluster, num_regions=4, schema_mode="normalized")
        repo.store(
            VisitStruct(user_id=1, poi_id=7, timestamp=100, grade=0.9,
                        poi_name="Taverna", lat=37.98, lon=23.73)
        )
        got = repo.visits_of_user(1)[0]
        assert got.poi_name == ""
        assert got.poi_id == 7
        assert got.grade == 0.9

    def test_invalid_schema_mode(self, cluster):
        with pytest.raises(ValidationError):
            VisitsRepository(cluster, schema_mode="wat")

    def test_all_visits_window_filter(self, cluster):
        repo = VisitsRepository(cluster, num_regions=4)
        for uid in (1, 2, 3):
            for ts in (100, 500):
                repo.store(VisitStruct(user_id=uid, poi_id=uid, timestamp=ts,
                                       grade=0.5))
        windowed = list(repo.all_visits(since=200))
        assert len(windowed) == 3
        assert all(v.timestamp == 500 for v in windowed)

    def test_separator_byte_user_ids_roundtrip(self, cluster):
        # User 18's hash salt contains 0x1f; the regression this guards.
        repo = VisitsRepository(cluster, num_regions=4)
        for uid in (18, 31, 0x1F00):
            repo.store(VisitStruct(user_id=uid, poi_id=1, timestamp=100, grade=0.5))
        assert len(list(repo.all_visits())) == 3
        for uid in (18, 31, 0x1F00):
            assert [v.user_id for v in repo.visits_of_user(uid)] == [uid]


class TestGPSTracesRepository:
    def test_push_and_window_scan(self, cluster):
        repo = GPSTracesRepository(cluster)
        pts = [
            GPSPoint(user_id=1, lat=37.98, lon=23.73, timestamp=100),
            GPSPoint(user_id=2, lat=37.99, lon=23.74, timestamp=200),
            GPSPoint(user_id=1, lat=38.00, lon=23.75, timestamp=300),
        ]
        assert repo.push_many(pts) == 3
        got = list(repo.scan_window(since=150, until=301))
        assert {p.timestamp for p in got} == {200, 300}

    def test_user_trace_time_ordered(self, cluster):
        repo = GPSTracesRepository(cluster)
        repo.push(GPSPoint(user_id=1, lat=37.98, lon=23.73, timestamp=300))
        repo.push(GPSPoint(user_id=1, lat=37.99, lon=23.74, timestamp=100))
        repo.push(GPSPoint(user_id=2, lat=37.97, lon=23.72, timestamp=200))
        trace = repo.user_trace(1)
        assert [p.timestamp for p in trace] == [100, 300]

    def test_coordinates_roundtrip(self, cluster):
        repo = GPSTracesRepository(cluster)
        repo.push(GPSPoint(user_id=7, lat=37.123456, lon=23.654321, timestamp=50))
        got = list(repo.scan_window())[0]
        assert got.lat == pytest.approx(37.123456)
        assert got.lon == pytest.approx(23.654321)
        assert got.user_id == 7


class TestBlogsRepository:
    def _visits(self):
        return [
            BlogVisit(poi_id=1, poi_name="Cafe", arrival=100, departure=200),
            BlogVisit(poi_id=2, poi_name="Museum", arrival=300, departure=400),
        ]

    def test_create_and_get(self):
        repo = BlogsRepository(SqlEngine())
        blog = repo.create(user_id=1, day="2015-05-31", visits=self._visits())
        got = repo.get(blog.blog_id)
        assert got.day == "2015-05-31"
        assert [v.poi_name for v in got.visits] == ["Cafe", "Museum"]
        assert repo.get(999) is None

    def test_for_user_sorted_by_day(self):
        repo = BlogsRepository(SqlEngine())
        repo.create(1, "2015-06-02", self._visits())
        repo.create(1, "2015-06-01", self._visits())
        repo.create(2, "2015-06-03", self._visits())
        days = [b.day for b in repo.for_user(1)]
        assert days == ["2015-06-01", "2015-06-02"]

    def test_update_visits_validates_times(self):
        repo = BlogsRepository(SqlEngine())
        blog = repo.create(1, "2015-05-31", self._visits())
        bad = [BlogVisit(poi_id=1, poi_name="X", arrival=500, departure=100)]
        with pytest.raises(ValidationError):
            repo.update_visits(blog.blog_id, bad)

    def test_mark_published_idempotent(self):
        repo = BlogsRepository(SqlEngine())
        blog = repo.create(1, "2015-05-31", self._visits())
        repo.mark_published(blog.blog_id, "facebook")
        repo.mark_published(blog.blog_id, "facebook")
        assert repo.get(blog.blog_id).published_to == ("facebook",)
