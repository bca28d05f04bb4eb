"""Tests for the Query Answering and Trending modules."""

import pytest

from repro.config import ClusterConfig
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
    VisitScanCoprocessor,
)
from repro.core.modules.trending import TrendingModule, TrendingQuery
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.errors import QueryError
from repro.geo import BoundingBox
from repro.hbase import HBaseCluster
from repro.sqlstore import SqlEngine


@pytest.fixture()
def setup():
    cluster = HBaseCluster(ClusterConfig(num_nodes=4, regions_per_table=8))
    pois = POIRepository(SqlEngine())
    visits = VisitsRepository(cluster, num_regions=8)

    # Three POIs: an Athens taverna, an Athens cafe, a Thessaloniki bar.
    pois.add(POI(poi_id=1, name="Taverna", lat=37.98, lon=23.73,
                 keywords=("food", "dinner"), category="restaurant"))
    pois.add(POI(poi_id=2, name="Cafe", lat=37.99, lon=23.74,
                 keywords=("coffee",), category="cafe"))
    pois.add(POI(poi_id=3, name="Bar", lat=40.64, lon=22.94,
                 keywords=("drinks",), category="bar"))

    def visit(uid, poi_id, ts, grade):
        p = {1: ("Taverna", 37.98, 23.73, ("food", "dinner")),
             2: ("Cafe", 37.99, 23.74, ("coffee",)),
             3: ("Bar", 40.64, 22.94, ("drinks",))}[poi_id]
        visits.store(VisitStruct(user_id=uid, poi_id=poi_id, timestamp=ts,
                                 grade=grade, poi_name=p[0], lat=p[1],
                                 lon=p[2], keywords=p[3]))

    # Friends 10, 11 love the taverna; 12 prefers the cafe; everyone
    # dislikes the bar.
    visit(10, 1, 100, 0.9)
    visit(10, 1, 200, 0.8)
    visit(11, 1, 150, 1.0)
    visit(11, 2, 160, 0.4)
    visit(12, 2, 170, 0.9)
    visit(12, 3, 180, 0.1)
    visit(13, 3, 190, 0.2)  # user 13 is NOT in the friend sets below

    qa = QueryAnsweringModule(pois, visits)
    yield qa, pois, visits


ATHENS = BoundingBox(37.9, 23.6, 38.1, 23.8)


class TestPersonalizedSearch:
    def test_interest_ranking_averages_friend_grades(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(friend_ids=(10, 11, 12), sort_by="interest"))
        assert res.personalized
        names = [p.name for p in res.pois]
        assert names[0] == "Taverna"  # mean grade 0.9
        taverna = res.pois[0]
        assert taverna.score == pytest.approx((0.9 + 0.8 + 1.0) / 3)
        assert taverna.visit_count == 3

    def test_hotness_ranking_counts_visits(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(friend_ids=(10, 11, 12), sort_by="hotness"))
        assert res.pois[0].name == "Taverna"
        assert res.pois[0].score == 3.0

    def test_only_selected_friends_count(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(friend_ids=(12,), sort_by="interest"))
        assert {p.poi_id for p in res.pois} == {2, 3}

    def test_bbox_filter(self, setup):
        qa, _, _ = setup
        res = qa.search(
            SearchQuery(friend_ids=(10, 11, 12), bbox=ATHENS, sort_by="interest")
        )
        assert {p.poi_id for p in res.pois} == {1, 2}

    def test_keyword_filter(self, setup):
        qa, _, _ = setup
        res = qa.search(
            SearchQuery(friend_ids=(10, 11, 12), keywords=("coffee",))
        )
        assert [p.poi_id for p in res.pois] == [2]

    def test_time_window(self, setup):
        qa, _, _ = setup
        res = qa.search(
            SearchQuery(friend_ids=(10, 11, 12), since=160, until=200,
                        sort_by="hotness")
        )
        # Only visits at ts 160..190 qualify: cafe x2, bar x1 (friend 12).
        by_id = {p.poi_id: p for p in res.pois}
        assert set(by_id) == {2, 3}
        assert by_id[2].visit_count == 2

    def test_limit(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(friend_ids=(10, 11, 12), limit=1))
        assert len(res.pois) == 1

    def test_latency_metadata_present(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(friend_ids=(10, 11, 12)))
        assert res.latency_ms > 0
        assert res.records_scanned >= 6
        # Routed fan-out: only regions owning queried friends are
        # invoked; the rest are pruned client-side.
        assert 1 <= res.regions_used <= 3
        assert res.regions_used + res.regions_pruned == 8
        assert res.cells_decoded <= res.records_scanned

    def test_unknown_friends_harmless(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(friend_ids=(997, 998)))
        assert res.pois == []

    def test_invalid_sort_rejected(self):
        with pytest.raises(QueryError):
            SearchQuery(friend_ids=(1,), sort_by="wat")

    def test_batch_matches_single(self, setup):
        qa, _, _ = setup
        q = SearchQuery(friend_ids=(10, 11, 12), sort_by="interest")
        single = qa.search(q)
        batch = qa.search_personalized_batch([q, q, q])
        for res in batch:
            assert [p.poi_id for p in res.pois] == [
                p.poi_id for p in single.pois
            ]

    def test_batch_rejects_non_personalized(self, setup):
        qa, _, _ = setup
        with pytest.raises(QueryError):
            qa.search_personalized_batch([SearchQuery()])

    def test_client_side_baseline_same_answer(self, setup):
        qa, _, _ = setup
        q = SearchQuery(friend_ids=(10, 11, 12), sort_by="interest")
        copro = qa.search(q)
        client = qa.search_personalized_client_side(q)
        assert [p.poi_id for p in client.pois] == [p.poi_id for p in copro.pois]
        for a, b in zip(client.pois, copro.pois):
            assert a.score == pytest.approx(b.score)


class TestNonPersonalizedSearch:
    def test_sql_path_used(self, setup):
        qa, pois, _ = setup
        pois.update_hotin(1, hotness=10.0, interest=0.9)
        pois.update_hotin(2, hotness=20.0, interest=0.5)
        res = qa.search(SearchQuery(sort_by="hotness", limit=2))
        assert not res.personalized
        assert [p.poi_id for p in res.pois] == [2, 1]
        # SQL path reports no coprocessor activity.
        assert res.regions_used == 0

    def test_bbox_and_keywords_on_sql_path(self, setup):
        qa, _, _ = setup
        res = qa.search(SearchQuery(bbox=ATHENS, keywords=("food",)))
        assert [p.poi_id for p in res.pois] == [1]


class TestTrending:
    def test_personalized_trending_counts_recent_visits(self, setup):
        qa, _, _ = setup
        trending = TrendingModule(qa)
        res = trending.trending(
            TrendingQuery(now=200, window_s=60, friend_ids=(10, 11, 12), limit=2)
        )
        # Window [140, 200): taverna x2 (ts 150, 200? no — until=now
        # exclusive), cafe x2, bar x1.
        assert res.personalized
        assert len(res.pois) == 2

    def test_global_trending_uses_hotness(self, setup):
        qa, pois, _ = setup
        pois.update_hotin(3, hotness=42.0, interest=0.1)
        trending = TrendingModule(qa)
        res = trending.trending(TrendingQuery(now=1000, window_s=500, limit=1))
        assert res.pois[0].poi_id == 3

    def test_invalid_window(self):
        with pytest.raises(QueryError):
            TrendingQuery(now=100, window_s=0)
