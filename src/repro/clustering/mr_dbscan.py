"""MR-DBSCAN: distributed density-based clustering (He et al., 2011).

The structure follows the paper the platform cites [7]:

1. **Partition**: the space is cut into grid cells; each cell holds the
   points it owns plus an *eps-halo* of replicated border points, so a
   cell-local neighborhood query is exact for owned points.
2. **Local clustering (map)**: every cell runs sequential DBSCAN on its
   own + halo points and emits, per point, its local cluster membership
   and whether the point is core (exact for owned points).
3. **Merge (reduce)**: local clusters that share a *globally core* point
   are the same global cluster; a union-find stitches them together and
   points are relabeled.

Equivalence with sequential DBSCAN on core-point structure is guaranteed
(and property-tested): border-point assignment is order-dependent in
DBSCAN itself, so only core membership is comparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ValidationError
from ..geo import GeoPoint
from ..mapreduce import JobRunner, MapReduceJob
from .dbscan import NOISE, ClusteringResult, _NeighborGrid, dbscan
from .grid import GridCell, GridPartitioner


class _UnionFind:
    """Disjoint sets over hashable keys with path compression."""

    def __init__(self) -> None:
        self._parent: Dict = {}

    def find(self, key):
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self.find(parent)
        self._parent[key] = root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def _local_cluster(cell: GridCell, points, eps_m: float, min_points: int):
    """Map task: DBSCAN inside one cell.

    Returns ``(point_index, local_cluster_key, is_core, is_inner)``
    tuples; ``local_cluster_key`` is globally unique via the cell id.
    """
    subset_indexes = cell.all_indexes
    subset_points = [points[i] for i in subset_indexes]
    result = dbscan(subset_points, eps_m, min_points)

    # Exact core status for owned points: DBSCAN's labels don't expose
    # coreness, so recompute neighborhood sizes on the local grid.
    local_grid = _NeighborGrid(subset_points, eps_m)
    inner_set = set(range(len(cell.inner)))  # inner points come first
    records = []
    for local_idx, global_idx in enumerate(subset_indexes):
        label = result.labels[local_idx]
        if label == NOISE:
            continue
        is_core = len(local_grid.neighbors(local_idx)) >= min_points
        is_inner = local_idx in inner_set
        records.append(
            (global_idx, (cell.cell_id, label), is_core, is_inner)
        )
    return records


def mr_dbscan(
    points: Sequence[GeoPoint],
    eps_m: float,
    min_points: int,
    target_partitions: int = 16,
    runner: Optional[JobRunner] = None,
) -> ClusteringResult:
    """Distributed DBSCAN over ``points``.

    Parameters mirror :func:`~repro.clustering.dbscan.dbscan`, plus the
    number of grid partitions (map tasks).
    """
    if eps_m <= 0:
        raise ValidationError("eps_m must be positive")
    if min_points < 1:
        raise ValidationError("min_points must be >= 1")

    points = list(points)
    n = len(points)
    if n == 0:
        return ClusteringResult(labels=[], num_clusters=0)

    partitioner = GridPartitioner(eps_m=eps_m, target_cells=target_partitions)
    cells = partitioner.partition(points)

    runner = runner or JobRunner()

    def mapper(cell, emit, counters):
        for global_idx, cluster_key, is_core, is_inner in _local_cluster(
            cell, points, eps_m, min_points
        ):
            emit(global_idx, (cluster_key, is_core, is_inner))
        counters.increment("cells_processed")

    def reducer(point_idx, memberships, emit, counters):
        emit(point_idx, list(memberships))

    job = MapReduceJob(
        name="mr-dbscan",
        mapper=mapper,
        reducer=reducer,
        num_mappers=max(1, len(cells)),
        num_reducers=4,
    )
    result = runner.run(job, cells)

    # ---- merge phase: union local clusters through globally-core points
    uf = _UnionFind()
    memberships_by_point: Dict[int, List[Tuple]] = {}
    for point_idx, memberships in result.pairs:
        memberships_by_point[point_idx] = memberships
        # Globally core = core in the owner cell (exact neighborhoods).
        globally_core = any(
            is_core for (_key, is_core, is_inner) in memberships if is_inner
        )
        if globally_core:
            keys = [key for (key, _c, _i) in memberships]
            for other in keys[1:]:
                uf.union(keys[0], other)

    # ---- relabel: owned membership decides each point's cluster
    labels = [NOISE] * n
    root_to_id: Dict = {}
    for point_idx, memberships in memberships_by_point.items():
        chosen = None
        for key, _is_core, is_inner in memberships:
            if is_inner:
                chosen = key
                break
        if chosen is None:
            chosen = memberships[0][0]
        root = uf.find(chosen)
        if root not in root_to_id:
            root_to_id[root] = len(root_to_id)
        labels[point_idx] = root_to_id[root]

    return ClusteringResult(labels=labels, num_clusters=len(root_to_id))
