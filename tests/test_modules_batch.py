"""Tests for the batch modules: HotIn update, event detection, trajectory."""

import pytest

from repro.config import ClusterConfig, JobsConfig
from repro.core.modules.event_detection import EventDetectionModule
from repro.core.modules.hotin_update import HotInUpdateModule
from repro.core.modules.trajectory import (
    StayPoint,
    TrajectoryModule,
    detect_stay_points,
)
from repro.core.repositories.gps_traces import GPSTracesRepository
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.text_repo import CommentRecord, TextRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.datagen import generate_traces
from repro.datagen.gps import GPSPoint
from repro.errors import ValidationError
from repro.geo import GeoPoint
from repro.geo.distance import offset_point_m
from repro.hbase import HBaseCluster
from repro.sqlstore import SqlEngine


@pytest.fixture()
def cluster():
    return HBaseCluster(ClusterConfig(num_nodes=2, regions_per_table=4))


class TestHotInUpdate:
    def test_aggregates_hotness_and_interest(self, cluster):
        pois = POIRepository(SqlEngine())
        pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                     keywords=(), category="cafe"))
        pois.add(POI(poi_id=2, name="B", lat=37.99, lon=23.74,
                     keywords=(), category="bar"))
        visits = VisitsRepository(cluster, num_regions=4)
        grades = {1: [0.8, 0.6, 1.0], 2: [0.2]}
        ts = 100
        for poi_id, gs in grades.items():
            for uid, g in enumerate(gs, start=1):
                visits.store(VisitStruct(user_id=uid, poi_id=poi_id,
                                         timestamp=ts, grade=g))
                ts += 1
        module = HotInUpdateModule(visits, pois, num_mappers=2)
        report = module.run(since=0, until=1000)
        assert report.visits_scanned == 4
        assert report.pois_updated == 2
        a = pois.get(1)
        assert a.hotness == 3.0
        assert a.interest == pytest.approx(0.8)
        b = pois.get(2)
        assert b.hotness == 1.0
        assert b.interest == pytest.approx(0.2)

    def test_window_excludes_outside_visits(self, cluster):
        pois = POIRepository(SqlEngine())
        pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                     keywords=(), category="cafe"))
        visits = VisitsRepository(cluster, num_regions=4)
        visits.store(VisitStruct(user_id=1, poi_id=1, timestamp=50, grade=1.0))
        visits.store(VisitStruct(user_id=1, poi_id=1, timestamp=500, grade=0.0))
        module = HotInUpdateModule(visits, pois, num_mappers=2)
        module.run(since=100, until=1000)
        assert pois.get(1).hotness == 1.0
        assert pois.get(1).interest == 0.0

    def test_unknown_pois_counted(self, cluster):
        pois = POIRepository(SqlEngine())
        visits = VisitsRepository(cluster, num_regions=4)
        visits.store(VisitStruct(user_id=1, poi_id=77, timestamp=10, grade=0.5))
        report = HotInUpdateModule(visits, pois, num_mappers=2).run(0, 100)
        assert report.pois_unknown == 1
        assert report.pois_updated == 0


class TestEventDetection:
    def _pois_repo(self, pois):
        repo = POIRepository(SqlEngine())
        for p in pois:
            repo.add(p)
        return repo

    def test_detects_hotspots_not_known_pois(self, cluster, small_pois):
        known = [
            POI(poi_id=p.poi_id, name=p.name, lat=p.lat, lon=p.lon,
                keywords=tuple(p.keywords), category=p.category)
            for p in small_pois[:40]
        ]
        pois = self._pois_repo(known)
        gps = GPSTracesRepository(cluster)
        scenario = generate_traces(
            user_ids=[1, 2, 3], known_pois=small_pois[:40],
            num_hotspots=4, points_per_hotspot=80, seed=12,
        )
        gps.push_many(scenario.points)
        module = EventDetectionModule(gps, pois, JobsConfig())
        report = module.run(since=0)
        assert report.traces_scanned == len(scenario.points)
        # Known-POI activity filtered before clustering.
        assert report.traces_after_filter < report.traces_scanned
        assert report.clusters_found == 4
        # Each created POI sits near a true hotspot center.
        for poi in report.pois_created:
            nearest = min(
                poi.location.distance_m(h) for h in scenario.hotspot_centers
            )
            assert nearest < 100.0
            assert poi.auto_detected

    def test_created_pois_are_queryable(self, cluster, small_pois):
        pois = self._pois_repo([])
        gps = GPSTracesRepository(cluster)
        scenario = generate_traces(
            user_ids=[1], known_pois=[], num_hotspots=2,
            points_per_hotspot=60, near_poi_points=0, background_points=50,
            seed=13,
        )
        gps.push_many(scenario.points)
        module = EventDetectionModule(gps, pois, JobsConfig())
        report = module.run(since=0)
        assert pois.count() == len(report.pois_created) == 2

    def test_incremental_runs_use_watermark(self, cluster):
        pois = self._pois_repo([])
        gps = GPSTracesRepository(cluster)
        scenario = generate_traces(
            user_ids=[1], known_pois=[], num_hotspots=1,
            points_per_hotspot=50, near_poi_points=0, background_points=0,
            seed=14, time_range=(0, 100),
        )
        gps.push_many(scenario.points)
        module = EventDetectionModule(gps, pois, JobsConfig())
        first = module.run()
        assert first.clusters_found == 1
        # Second run sees no new traces past the watermark.
        second = module.run()
        assert second.traces_scanned == 0
        assert second.clusters_found == 0


class TestStayPointDetection:
    def _dwell(self, lat, lon, t0, duration, n=10):
        return [
            GPSPoint(user_id=1, lat=lat, lon=lon,
                     timestamp=t0 + i * (duration // max(1, n - 1)))
            for i in range(n)
        ]

    def test_detects_single_dwell(self):
        points = self._dwell(37.98, 23.73, t0=0, duration=1800)
        stays = detect_stay_points(points, radius_m=80, min_stay_s=900)
        assert len(stays) == 1
        assert stays[0].duration_s >= 900

    def test_moving_trace_has_no_stays(self):
        points = [
            GPSPoint(user_id=1,
                     lat=offset_point_m(37.98, 23.73, 300.0 * i, 0)[0],
                     lon=23.73, timestamp=i * 60)
            for i in range(30)
        ]
        assert detect_stay_points(points, radius_m=80, min_stay_s=900) == []

    def test_two_dwells_with_travel_between(self):
        first = self._dwell(37.98, 23.73, t0=0, duration=1200)
        lat2, lon2 = offset_point_m(37.98, 23.73, 2000.0, 0.0)
        second = self._dwell(lat2, lon2, t0=3000, duration=1200)
        stays = detect_stay_points(first + second, radius_m=80, min_stay_s=900)
        assert len(stays) == 2
        assert stays[0].departure <= stays[1].arrival

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            detect_stay_points([], radius_m=0, min_stay_s=1)
        with pytest.raises(ValidationError):
            detect_stay_points([], radius_m=1, min_stay_s=0)


class TestTrajectoryModule:
    def test_infers_semantic_trajectory(self, cluster):
        pois = POIRepository(SqlEngine())
        pois.add(POI(poi_id=1, name="Cafe", lat=37.9800, lon=23.7300,
                     keywords=(), category="cafe"))
        pois.add(POI(poi_id=2, name="Museum", lat=37.9900, lon=23.7400,
                     keywords=(), category="museum"))
        gps = GPSTracesRepository(cluster)
        texts = TextRepository(cluster)
        # Dwell at the cafe 08:00-08:30, museum 10:00-10:40.
        for i in range(10):
            gps.push(GPSPoint(1, 37.98001, 23.73001, 28800 + i * 200))
        for i in range(10):
            gps.push(GPSPoint(1, 37.99001, 23.74, 36000 + i * 260))
        texts.store(CommentRecord(1, 1, 29000, "lovely espresso", 0.95))

        module = TrajectoryModule(gps, pois, texts)
        trajectory = module.infer(1, since=0, until=86400)
        assert trajectory.poi_names() == ["Cafe", "Museum"]
        assert trajectory.stops[0].comment == "lovely espresso"
        assert trajectory.stops[0].stay.arrival == 28800

    def test_unmatched_stay_is_anonymous(self, cluster):
        pois = POIRepository(SqlEngine())
        gps = GPSTracesRepository(cluster)
        texts = TextRepository(cluster)
        for i in range(10):
            gps.push(GPSPoint(1, 37.5, 23.5, 1000 + i * 200))
        trajectory = TrajectoryModule(gps, pois, texts).infer(1, 0, 10_000)
        assert len(trajectory.stops) == 1
        assert trajectory.stops[0].poi is None
        assert trajectory.poi_names() == ["Unknown place"]
