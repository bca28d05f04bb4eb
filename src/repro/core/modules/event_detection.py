"""Event Detection Module (paper Section 2.2).

"A distributed, Hadoop-based implementation of the DBSCAN clustering
algorithm is employed ... processes in parallel the updates of GPS
Traces Repository in order to find traces of high density; high density
traces imply the existence of a new POI.  In order to avoid detecting
already known POIs, traces falling near to existing POIs in POI
Repository are filtered out."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...clustering import mr_dbscan
from ...clustering.dbscan import cluster_centroid
from ...config import JobsConfig
from ...geo import BoundingBox, GeoPoint
from ..repositories.gps_traces import GPSTracesRepository
from ..repositories.poi import POI, POIRepository

#: GPS points closer than this to a known POI are filtered before
#: clustering (paper Section 2.2, Event Detection Module).
KNOWN_POI_FILTER_RADIUS_M = 80.0


@dataclass
class DetectionReport:
    """Outcome of one periodic detection run."""

    traces_scanned: int
    traces_after_filter: int
    clusters_found: int
    pois_created: List[POI]


class EventDetectionModule:
    """Periodic new-POI / trending-event discovery."""

    def __init__(
        self,
        gps_repository: GPSTracesRepository,
        poi_repository: POIRepository,
        config: Optional[JobsConfig] = None,
    ) -> None:
        self.gps = gps_repository
        self.pois = poi_repository
        self.config = config or JobsConfig()

    def run(
        self, since: Optional[int] = None, until: Optional[int] = None
    ) -> DetectionReport:
        """Cluster the window's traces and register new POIs."""
        since = since if since is not None else self.gps.processed_until
        points = list(self.gps.scan_window(since, until))
        total = len(points)

        # Known-POI filter: drop traces near an existing POI.
        filtered = [
            p
            for p in points
            if self.pois.nearest_within(
                GeoPoint(p.lat, p.lon), KNOWN_POI_FILTER_RADIUS_M
            ) is None
        ]

        geo_points = [GeoPoint(p.lat, p.lon) for p in filtered]
        result = mr_dbscan(
            geo_points,
            eps_m=self.config.dbscan_eps_m,
            min_points=self.config.dbscan_min_points,
        )

        created: List[POI] = []
        next_id = self.pois.next_poi_id()
        for cluster_id, members in sorted(result.cluster_members().items()):
            centroid = cluster_centroid(geo_points, members)
            poi = POI(
                poi_id=next_id,
                name="Detected event #%d" % next_id,
                lat=centroid.lat,
                lon=centroid.lon,
                keywords=("event", "trending"),
                category="event",
                hotness=float(len(members)),
                auto_detected=True,
            )
            self.pois.add(poi)
            created.append(poi)
            next_id += 1

        if points:
            self.gps.processed_until = max(p.timestamp for p in points) + 1

        return DetectionReport(
            traces_scanned=total,
            traces_after_filter=len(filtered),
            clusters_found=result.num_clusters,
            pois_created=created,
        )
