"""Work guards for the initial load (counts, not timings).

Two O(n*k) traps were measured while the load became a bulk load
(EXPERIMENTS.md, "Bulk load"): building or merging a store file on each
of the k load calls re-sorts and re-checksums everything loaded so far,
and an R-tree that recomputes every ancestor's box from its children on
each insert builds boxes without bound.  Both are cheap to reintroduce
and invisible to answer-checking tests, so the work itself is counted.
"""

from unittest import mock

import repro.geo.bbox as bbox_mod
import repro.geo.rtree as rtree_mod
import repro.sqlstore.index as index_mod
from repro.config import PlatformConfig
from repro.core.modules.query_answering import SearchQuery
from repro.core.platform import MoDisSENSE
from repro.core.repositories.visits import FAMILY
from repro.datagen import generate_pois, generate_visits
from repro.geo import BoundingBox
from repro.hbase.hfile import StoreFile

NUM_POIS = 8_500
NUM_USERS = 600
LOAD_CALLS = 8


class CountingBox(BoundingBox):
    built = 0

    def __post_init__(self):
        CountingBox.built += 1
        super().__post_init__()


def test_chunked_load_builds_one_file_per_region_and_a_packed_poi_index():
    pois = generate_pois(count=NUM_POIS, seed=3)
    with MoDisSENSE(PlatformConfig.small()) as platform:
        with mock.patch.object(bbox_mod, "BoundingBox", CountingBox), \
                mock.patch.object(rtree_mod, "BoundingBox", CountingBox), \
                mock.patch.object(index_mod, "BoundingBox", CountingBox):
            version = platform.poi_repository.version
            assert platform.load_pois(pois) == NUM_POIS
        # One box per point plus one per tree node (fan-out 16); the
        # insert-by-insert load built ~45 per point.
        assert NUM_POIS <= CountingBox.built <= 2 * NUM_POIS
        assert platform.poi_repository.version == version + 1

        visits = list(generate_visits(
            range(1, NUM_USERS + 1), pois, seed=3, mean=17.0, std=5.0
        ))
        chunk = -(-len(visits) // LOAD_CALLS)
        files_built = StoreFile._next_id
        for call in range(LOAD_CALLS):
            platform.load_visits(visits[call * chunk:(call + 1) * chunk])
        # Loading stages sorted runs; it builds no file, logs nothing.
        assert StoreFile._next_id == files_built
        regions = platform.visits_repository.table.regions
        assert [len(region.wal) for region in regions] == [0] * len(regions)

        result = platform.search(
            SearchQuery(friend_ids=tuple(range(1, NUM_USERS + 1)))
        )
        assert result.records_scanned == len(visits)
        assert platform.visits_repository.count() == len(visits)
        # The first read of each region sealed its eight runs into ONE
        # file; nothing was rebuilt per call.
        assert StoreFile._next_id - files_built == len(regions)
        for region in regions:
            (sf,) = region.store_files_for(FAMILY)
            assert sf.plain
            assert region.approx_rows(FAMILY) == len(sf)  # memstore empty
