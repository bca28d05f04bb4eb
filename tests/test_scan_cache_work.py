"""Work guard for row-level scan-cache invalidation (counts, not timings).

The point of the write journal (DESIGN.md §7.1) is that a write costs
the next query the written friend's cells and nothing else.  A change
that quietly widens the unit of invalidation back to the region — or
lets the journal grow without bound — keeps every answer right and
every oracle green, so the work itself is counted: through the whole
production stack, writes arriving by the ingest tier.
"""

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


def test_a_write_costs_the_next_query_its_friends_cells_and_nothing_else():
    pois = generate_pois(count=300, seed=21)
    with MoDisSENSE(PlatformConfig.small()) as platform:
        platform.load_pois(pois)
        platform.load_visits(generate_visits(
            range(1, NUM_USERS + 1), pois, seed=21, mean=12.0, std=4.0
        ))
        repo = platform.visits_repository
        regions = repo.table.regions
        query = SearchQuery(friend_ids=FRIENDS, limit=10)
        clock = [10_000_000]

        def write(user_id):
            clock[0] += 1
            poi = pois[clock[0] % len(pois)]
            return VisitStruct(
                user_id=user_id, poi_id=poi.poi_id, timestamp=clock[0],
                grade=0.5, poi_name=poi.name, lat=poi.lat, lon=poi.lon,
                keywords=tuple(poi.keywords),
            )

        def cells_of(friends):
            return sum(
                len(list(repo.table.scan(
                    FAMILY, *repo.time_range_keys(friend, None, None)
                )))
                for friend in friends
            )

        def uncached(q):
            cache, platform.hbase.scan_cache = platform.hbase.scan_cache, None
            try:
                return platform.search(q)
            finally:
                platform.hbase.scan_cache = cache

        for _ in range(3):  # open, fill, serve
            warm = platform.search(query)
        assert (warm.cache_hits, warm.records_scanned) == (len(FRIENDS), 0)

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
