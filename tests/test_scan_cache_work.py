"""Work guard for row-level scan-cache invalidation (counts, not timings).

The point of the write journal (DESIGN.md §7.1) is that a write costs
the next query the written friend's cells and nothing else — and a
write that lands while a query folds the region costs that query
nothing, and a flush or compaction after it costs nothing more.  A
change that quietly widens the unit of invalidation back to the region
— or lets the journal grow without bound, drops a fold's reads and
fills when a write races it, or drops a region's entries when its
storage is reorganized — keeps every answer right and every oracle
green, so the work itself is counted: through the whole production
stack, writes arriving by the ingest tier or, inside a fold, by the
synchronous store.
"""

import contextlib

import pytest

from repro.config import PlatformConfig
from repro.core.modules.query_answering import SearchQuery
from repro.core.platform import MoDisSENSE
from repro.core.repositories.visits import FAMILY, VisitStruct
from repro.datagen import generate_pois, generate_visits
from repro.hbase.region import JOURNAL_MAX

NUM_USERS = 800
FRIENDS = tuple(range(1, 501))
#: ``(k writes, to j distinct friends)`` between two identical queries.
ROUNDS = [(0, 0), (1, 1), (7, 3), (40, 40), (90, 25)]


def _rows(answer):
    return [
        (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
        for p in answer.pois
    ]


class _Warm:
    """The small production platform with 800 users bulk-loaded and
    the 500-friend query served whole from the cache."""

    def __init__(self, platform):
        self.platform = platform
        self.pois = generate_pois(count=300, seed=21)
        platform.load_pois(self.pois)
        platform.load_visits(generate_visits(
            range(1, NUM_USERS + 1), self.pois, seed=21, mean=12.0, std=4.0
        ))
        self.repo = platform.visits_repository
        self.query = SearchQuery(friend_ids=FRIENDS, limit=10)
        self.clock = 10_000_000
        for _ in range(3):  # open, fill, serve
            warm = platform.search(self.query)
        assert (warm.cache_hits, warm.records_scanned) == (len(FRIENDS), 0)

    def write(self, user_id):
        self.clock += 1
        poi = self.pois[self.clock % len(self.pois)]
        return VisitStruct(
            user_id=user_id, poi_id=poi.poi_id, timestamp=self.clock,
            grade=0.5, poi_name=poi.name, lat=poi.lat, lon=poi.lon,
            keywords=tuple(poi.keywords),
        )

    def cells_of(self, friends):
        repo = self.repo
        return sum(
            len(list(repo.table.scan(
                FAMILY, *repo.time_range_keys(friend, None, None)
            )))
            for friend in friends
        )

    def uncached(self, query):
        cluster = self.platform.hbase
        cache, cluster.scan_cache = cluster.scan_cache, None
        try:
            return self.platform.search(query)
        finally:
            cluster.scan_cache = cache


@contextlib.contextmanager
def _warm():
    with MoDisSENSE(PlatformConfig.small()) as platform:
        yield _Warm(platform)


def test_a_write_costs_the_next_query_its_friends_cells_and_nothing_else():
    with _warm() as w:
        platform, repo, query = w.platform, w.repo, w.query
        regions = repo.table.regions
        write, cells_of, uncached = w.write, w.cells_of, w.uncached

        for k, j in ROUNDS:
            written = FRIENDS[7::11][:j]
            # Some also go to users nobody queries, in the same regions.
            platform.ingest_visits(
                [write(written[i % j]) for i in range(k)]
                + [write(NUM_USERS - i) for i in range(k)]
            )
            assert platform.ingest.drain()
            after = platform.search(query)
            assert (after.cache_misses, after.records_scanned) == (
                j, cells_of(written)
            ), (k, j)
            assert _rows(after) == _rows(uncached(query))
            again = platform.search(query)
            assert (again.cache_misses, again.records_scanned) == (0, 0)

        # A burst no journal can follow: ten times the bound, spread
        # over all users.  The journals stay bounded, every region
        # answers "cannot enumerate", and the next query is cold.
        burst = 10 * JOURNAL_MAX
        assert burst // len(regions) > JOURNAL_MAX
        platform.ingest_visits(
            write(1 + i % NUM_USERS) for i in range(burst)
        )
        assert platform.ingest.drain()
        assert all(len(region._journal) <= JOURNAL_MAX for region in regions)
        assert all(region.journal_overflows for region in regions)
        cold = platform.search(query)
        assert (cold.cache_hits, cold.cache_misses) == (0, len(FRIENDS))
        assert cold.records_scanned == cells_of(FRIENDS)
        assert _rows(cold) == _rows(uncached(query))
        assert platform.scan_cache.stats()["journal_overflows"] == len(regions)


def test_a_write_inside_a_fold_costs_that_query_nothing():
    """One friend of a region is written before the query, so its fold
    scans it; a write to the region's first friend — already served —
    lands just before that scan.  The query pays the scanned friend's
    cells and nothing for the write: the friends after it are still
    served from the cache (a fold that stopped reading at the write
    would scan every one of them).  The next query pays exactly the
    written friend's cells."""
    with _warm() as w:
        repo = w.repo
        region = repo.table.regions[0]
        here = repo.route_friends(FRIENDS)[region]
        written, scanned, rest = here[0], here[1], here[2:]
        assert rest
        repo.store(w.write(scanned))
        memstore = region._memstores[FAMILY]
        prefix = repo.user_prefix(scanned)

        def slice_then_write(start_row=None, stop_row=None):
            if start_row.startswith(prefix):
                del memstore.slice  # once
                repo.store(w.write(written))
            return memstore.slice(start_row, stop_row)

        memstore.slice = slice_then_write
        seqid = region.data_seqid
        racing = w.platform.search(w.query)
        assert region.data_seqid == seqid + 1  # landed inside the fold
        assert (racing.cache_misses, racing.records_scanned) == (
            1, w.cells_of([scanned])
        )
        after = w.platform.search(w.query)
        assert (after.cache_misses, after.records_scanned) == (
            1, w.cells_of([written])
        )
        assert _rows(after) == _rows(w.uncached(w.query))
        again = w.platform.search(w.query)
        assert (again.cache_misses, again.records_scanned) == (0, 0)


#: What reorganizes every region's storage after the writes: a flush
#: (memstore to a second file), a flush and the minor compaction that
#: merges the two files, or a major compaction of memstore and file.
MAINTENANCE = {
    "flush": lambda region: region.flush(),
    "minor_compact": lambda region: (
        region.flush(), region.minor_compact(FAMILY)
    ),
    "major_compact": lambda region: region.compact(),
}


@pytest.mark.parametrize("maintenance", sorted(MAINTENANCE))
def test_a_flush_or_compaction_after_writes_costs_only_the_written_friends(
    maintenance,
):
    """k friends are written, then every region's storage is
    reorganized.  That changes no scan's answer, so the next query
    pays exactly the written friends' cells — not a refill of every
    region — and the query after it nothing."""
    with _warm() as w:
        platform, query = w.platform, w.query
        regions = w.repo.table.regions
        written = FRIENDS[5::37]
        platform.ingest_visits([w.write(friend) for friend in written])
        assert platform.ingest.drain()
        for region in regions:
            MAINTENANCE[maintenance](region)
            assert region.store_file_count(FAMILY) == (
                2 if maintenance == "flush" else 1
            )
            assert len(region._memstores[FAMILY]) == 0
        after = platform.search(query)
        assert (after.cache_misses, after.records_scanned) == (
            len(written), w.cells_of(written)
        )
        assert _rows(after) == _rows(w.uncached(query))
        again = platform.search(query)
        assert (again.cache_misses, again.records_scanned) == (0, 0)
