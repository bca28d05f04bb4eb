"""Semantic trajectory inference (paper Sections 1–2).

"Inference of the user's semantic trajectory through the combination of
her GPS traces with background information such as maps, check-ins,
user comments" — a semantic trajectory being "a timestamped sequence of
POIs summarizing user's activity during the day."

The classic pipeline: stay-point detection over the raw trace (Li et
al., 2008), then matching each stay to the nearest known POI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ...datagen.gps import GPSPoint
from ...errors import ValidationError
from ...geo import GeoPoint
from ..repositories.gps_traces import GPSTracesRepository
from ..repositories.poi import POI, POIRepository
from ..repositories.text_repo import TextRepository


@dataclass(frozen=True)
class StayPoint:
    """A dwell: the user lingered within ``radius_m`` for ``>= min_stay``."""

    lat: float
    lon: float
    arrival: int
    departure: int

    @property
    def duration_s(self) -> int:
        return self.departure - self.arrival

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


@dataclass(frozen=True)
class SemanticStop:
    """A stay matched to a POI (or left anonymous)."""

    stay: StayPoint
    poi: Optional[POI]
    comment: str = ""


@dataclass
class SemanticTrajectory:
    """The day's timestamped POI sequence."""

    user_id: int
    stops: List[SemanticStop]

    def poi_names(self) -> List[str]:
        return [s.poi.name if s.poi else "Unknown place" for s in self.stops]


def detect_stay_points(
    points: Sequence[GPSPoint],
    radius_m: float = 80.0,
    min_stay_s: int = 900,
) -> List[StayPoint]:
    """Stay-point detection: grow a window while all points remain within
    ``radius_m`` of the anchor; emit when the dwell lasted ``min_stay_s``."""
    if radius_m <= 0:
        raise ValidationError("radius_m must be positive")
    if min_stay_s <= 0:
        raise ValidationError("min_stay_s must be positive")
    pts = sorted(points, key=lambda p: p.timestamp)
    stays: List[StayPoint] = []
    i = 0
    n = len(pts)
    while i < n:
        anchor = GeoPoint(pts[i].lat, pts[i].lon)
        j = i + 1
        while j < n:
            if anchor.distance_m(GeoPoint(pts[j].lat, pts[j].lon)) > radius_m:
                break
            j += 1
        duration = pts[j - 1].timestamp - pts[i].timestamp
        if duration >= min_stay_s:
            cluster = pts[i:j]
            stays.append(
                StayPoint(
                    lat=sum(p.lat for p in cluster) / len(cluster),
                    lon=sum(p.lon for p in cluster) / len(cluster),
                    arrival=cluster[0].timestamp,
                    departure=cluster[-1].timestamp,
                )
            )
            i = j
        else:
            i += 1
    return stays


class TrajectoryModule:
    """Builds semantic trajectories from stored traces + POIs + comments."""

    def __init__(
        self,
        gps_repository: GPSTracesRepository,
        poi_repository: POIRepository,
        text_repository: TextRepository,
        stay_radius_m: float = 80.0,
        min_stay_s: int = 900,
        poi_match_radius_m: float = 120.0,
    ) -> None:
        self.gps = gps_repository
        self.pois = poi_repository
        self.texts = text_repository
        self.stay_radius_m = stay_radius_m
        self.min_stay_s = min_stay_s
        self.poi_match_radius_m = poi_match_radius_m

    def infer(
        self, user_id: int, since: int, until: int
    ) -> SemanticTrajectory:
        """The user's semantic trajectory over ``[since, until)``."""
        trace = self.gps.user_trace(user_id, since, until)
        stays = detect_stay_points(
            trace, radius_m=self.stay_radius_m, min_stay_s=self.min_stay_s
        )
        stops: List[SemanticStop] = []
        for stay in stays:
            poi = self.pois.nearest_within(
                stay.location, self.poi_match_radius_m
            )
            comment = ""
            if poi is not None:
                # Enrich with the user's own comment during the stay.
                comments = self.texts.comments(
                    user_id, poi.poi_id, stay.arrival, stay.departure + 1
                )
                if comments:
                    comment = comments[0].text
            stops.append(SemanticStop(stay=stay, poi=poi, comment=comment))
        return SemanticTrajectory(user_id=user_id, stops=stops)
