"""End-to-end integration tests: the full platform lifecycle."""

import threading

import pytest

from repro import MoDisSENSE, SearchQuery, TrendingQuery
from repro.config import PlatformConfig
from repro.datagen import (
    ReviewGenerator,
    generate_pois,
    generate_traces,
    generate_visits,
)
from repro.social import CheckIn, FriendInfo


@pytest.fixture(scope="module")
def loaded_platform():
    """A platform with POIs, a trained classifier, two registered users
    with disjoint taste profiles, and collected social data.

    Mirrors the demo scenario of paper Section 4: one user's friends
    love fast food, the other's prefer upscale restaurants.
    """
    p = MoDisSENSE(PlatformConfig.small())
    pois = generate_pois(count=400, seed=20)
    p.load_pois(pois)
    corpus = ReviewGenerator(seed=21, capacity=4000).labeled_texts(1200)
    p.text_processing.train(corpus)

    fb = p.plugins["facebook"]
    for i in range(1, 31):
        fb.add_profile(FriendInfo("fb_%d" % i, "User %d" % i, "pic"))
    # User 1's friends: 3..10; user 2's friends: 11..18.
    for i in range(3, 11):
        fb.add_friendship("fb_1", "fb_%d" % i)
    for i in range(11, 19):
        fb.add_friendship("fb_2", "fb_%d" % i)

    fastfood = [q for q in pois if q.category == "fastfood"][:6]
    restaurants = [q for q in pois if q.category == "restaurant"][:6]
    ts = 1000
    for i in range(3, 11):  # user 1's circle loves fast food
        for poi in fastfood[:4]:
            fb.add_checkin(
                CheckIn("fb_%d" % i, poi.poi_id, poi.lat, poi.lon, ts,
                        "excellent delicious wonderful")
            )
            ts += 1
    for i in range(11, 19):  # user 2's circle loves restaurants
        for poi in restaurants[:4]:
            fb.add_checkin(
                CheckIn("fb_%d" % i, poi.poi_id, poi.lat, poi.lon, ts,
                        "superb lovely impeccable")
            )
            ts += 1
        # ... and hates fast food.
        fb.add_checkin(
            CheckIn("fb_%d" % i, fastfood[0].poi_id, fastfood[0].lat,
                    fastfood[0].lon, ts, "terrible greasy awful")
        )
        ts += 1

    p.register_user("facebook", "fb_1", "pw", now=10_000.0)
    p.register_user("facebook", "fb_2", "pw", now=10_000.0)
    p.collect(now=10_000)
    p.run_hotin(0, 20_000)
    yield p, pois, fastfood, restaurants
    p.shutdown()


class TestPersonalizationScenario:
    def test_same_query_different_users_different_results(self, loaded_platform):
        """Paper Section 4 demo: the same keyword search returns fast
        food for one user and upscale restaurants for the other."""
        p, _pois, fastfood, restaurants = loaded_platform
        user1_friends = tuple(range(3, 11))
        user2_friends = tuple(range(11, 19))
        res1 = p.search(SearchQuery(friend_ids=user1_friends,
                                    sort_by="interest", limit=4))
        res2 = p.search(SearchQuery(friend_ids=user2_friends,
                                    sort_by="interest", limit=4))
        ids1 = {r.poi_id for r in res1.pois}
        ids2 = {r.poi_id for r in res2.pois}
        assert ids1 <= {q.poi_id for q in fastfood}
        assert ids2 <= {q.poi_id for q in restaurants}
        assert ids1.isdisjoint(ids2)

    def test_negative_opinions_sink_ranking(self, loaded_platform):
        p, _pois, fastfood, _restaurants = loaded_platform
        user2_friends = tuple(range(11, 19))
        res = p.search(SearchQuery(friend_ids=user2_friends,
                                   sort_by="interest", limit=10))
        scores = {r.poi_id: r.score for r in res.pois}
        disliked = scores.get(fastfood[0].poi_id)
        if disliked is not None:
            assert disliked < min(
                s for pid, s in scores.items() if pid != fastfood[0].poi_id
            )

    def test_global_hotness_reflects_all_visits(self, loaded_platform):
        p, _pois, fastfood, _restaurants = loaded_platform
        res = p.search(SearchQuery(sort_by="hotness", limit=1))
        # fastfood[0] got visits from both circles: 8 + 8 = 16 visits.
        assert res.pois[0].poi_id == fastfood[0].poi_id

    def test_trending_in_window(self, loaded_platform):
        p, _pois, _fastfood, _restaurants = loaded_platform
        res = p.trending_events(
            TrendingQuery(now=20_000, window_s=20_000,
                          friend_ids=tuple(range(3, 19)), limit=3)
        )
        assert len(res.pois) == 3
        assert res.pois[0].score >= res.pois[1].score >= res.pois[2].score


class TestEventDetectionIntegration:
    def test_detected_events_become_searchable(self, loaded_platform):
        p, pois, _f, _r = loaded_platform
        before = p.poi_repository.count()
        scenario = generate_traces(
            user_ids=[1, 2], known_pois=pois, num_hotspots=2,
            points_per_hotspot=80, near_poi_points=50, background_points=60,
            seed=22,
        )
        p.push_gps(scenario.points)
        report = p.detect_events(since=0)
        assert report.clusters_found == 2
        assert p.poi_repository.count() == before + 2
        # Auto-detected POIs answer keyword search.
        res = p.search(SearchQuery(keywords=("event",), sort_by="hotness"))
        assert len(res.pois) >= 1


class TestDescribe:
    def test_describe_summarizes_deployment(self, loaded_platform):
        p, _pois, _f, _r = loaded_platform
        info = p.describe()
        assert info["pois"] >= 400
        assert info["visits"] > 0
        assert set(info["networks"]) == {"facebook", "twitter", "foursquare"}
        assert info["hbase"]["cluster"]["nodes"] == 4


def _all_on_config():
    config = PlatformConfig.small()
    for section in (config.cache, config.topk, config.ingest,
                    config.supervisor, config.admission, config.tracing,
                    config.telemetry):
        section.enabled = True
    return config


class TestThreadCensus:
    """Region scans and map/reduce tasks run in the thread that asked
    for them: the only threads a platform starts are its ingest appliers
    and the telemetry profiler, and ``shutdown()`` stops those."""

    @pytest.mark.parametrize(
        "make_config", [PlatformConfig.small, _all_on_config],
        ids=["default", "all-on"],
    )
    def test_only_appliers_and_profiler_are_started(self, make_config):
        before = set(threading.enumerate())
        platform = MoDisSENSE(make_config())
        try:
            pois = generate_pois(count=120, seed=5)
            platform.load_pois(pois)
            platform.load_visits(generate_visits(
                range(1, 60), pois, seed=5, mean=8.0, std=2.0))
            result = platform.search(SearchQuery(
                friend_ids=tuple(range(1, 60)), sort_by="hotness"))
            regions = len(platform.visits_repository.table.regions)
            assert result.regions_used == regions > 1
            platform.run_hotin(0, 2 ** 31)
            platform.push_gps(generate_traces(
                user_ids=[1, 2], known_pois=pois, num_hotspots=2,
                points_per_hotspot=60, near_poi_points=30,
                background_points=40, seed=6,
            ).points)
            assert platform.detect_events(since=0).clusters_found == 2
            started = set(threading.enumerate()) - before
            assert all(
                thread.name.startswith("ingest-applier-")
                or thread.name == "telemetry-profiler"
                for thread in started
            ), sorted(thread.name for thread in started)
        finally:
            platform.shutdown()
        assert set(threading.enumerate()) <= before
