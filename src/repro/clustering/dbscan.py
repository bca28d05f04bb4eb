"""Sequential DBSCAN over geographic points.

The reference implementation against which MR-DBSCAN is validated.
Neighborhood queries run against a uniform spatial grid of cell size
``eps``, making the overall complexity near-linear for the GPS-trace
densities the platform sees.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ValidationError
from ..geo import GeoPoint
from ..geo.distance import METERS_PER_DEG_LAT, euclidean_approx_m, meters_per_deg_lon

#: Cluster label for noise points.
NOISE = -1


@dataclass
class ClusteringResult:
    """Labels aligned with the input points, plus cluster summaries."""

    labels: List[int]
    num_clusters: int

    def cluster_members(self) -> Dict[int, List[int]]:
        """Cluster id -> indexes of member points (noise excluded)."""
        members: Dict[int, List[int]] = {}
        for idx, label in enumerate(self.labels):
            if label != NOISE:
                members.setdefault(label, []).append(idx)
        return members


class _NeighborGrid:
    """Uniform grid with cell size eps: neighbor search touches at most
    the 3x3 cells around a point."""

    def __init__(self, points: Sequence[GeoPoint], eps_m: float) -> None:
        self._points = points
        self._eps = eps_m
        if points:
            mean_lat = sum(p.lat for p in points) / len(points)
        else:
            mean_lat = 0.0
        self._lat_step = eps_m / METERS_PER_DEG_LAT
        self._lon_step = eps_m / max(meters_per_deg_lon(mean_lat), 1e-9)
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        for idx, p in enumerate(points):
            self._cells.setdefault(self._cell_of(p), []).append(idx)

    def _cell_of(self, p: GeoPoint) -> Tuple[int, int]:
        return (
            int(math.floor(p.lat / self._lat_step)),
            int(math.floor(p.lon / self._lon_step)),
        )

    def neighbors(self, idx: int) -> List[int]:
        """Indexes within eps of point ``idx`` (including itself)."""
        p = self._points[idx]
        ci, cj = self._cell_of(p)
        out: List[int] = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                bucket = self._cells.get((ci + di, cj + dj))
                if not bucket:
                    continue
                for j in bucket:
                    q = self._points[j]
                    if euclidean_approx_m(p.lat, p.lon, q.lat, q.lon) <= self._eps:
                        out.append(j)
        return out


def dbscan(
    points: Sequence[GeoPoint],
    eps_m: float,
    min_points: int,
) -> ClusteringResult:
    """Classic DBSCAN (Ester et al., 1996).

    Parameters
    ----------
    points:
        The GPS points to cluster.
    eps_m:
        Neighborhood radius in meters.
    min_points:
        Minimum neighborhood size (including the point itself) for a
        point to be *core*.
    """
    if eps_m <= 0:
        raise ValidationError("eps_m must be positive")
    if min_points < 1:
        raise ValidationError("min_points must be >= 1")

    points = list(points)
    n = len(points)
    labels = [NOISE] * n
    if n == 0:
        return ClusteringResult(labels=labels, num_clusters=0)

    grid = _NeighborGrid(points, eps_m)
    visited = [False] * n
    cluster_id = -1

    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        neighbors = grid.neighbors(i)
        if len(neighbors) < min_points:
            continue  # stays noise unless pulled in as a border point
        cluster_id += 1
        labels[i] = cluster_id
        queue = deque(neighbors)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster_id  # border or reachable point
            if visited[j]:
                continue
            visited[j] = True
            j_neighbors = grid.neighbors(j)
            if len(j_neighbors) >= min_points:
                queue.extend(j_neighbors)

    return ClusteringResult(labels=labels, num_clusters=cluster_id + 1)


def cluster_centroid(
    points: Sequence[GeoPoint], member_indexes: Sequence[int]
) -> GeoPoint:
    """Arithmetic centroid of a cluster's members.

    Fine at city scale; the platform registers it as the detected POI's
    location.
    """
    if not member_indexes:
        raise ValidationError("cannot take the centroid of no points")
    lat = sum(points[i].lat for i in member_indexes) / len(member_indexes)
    lon = sum(points[i].lon for i in member_indexes) / len(member_indexes)
    return GeoPoint(lat, lon)
