"""Work guard for the region filter (counts, not timings).

A filtered region keeps the POIs whose row holds a query keyword by
membership in the attribute table's postings (``by_keyword``) and reads
rows only for those survivors and for the rows it had to decode.
Gathering and testing every aggregated POI's row again keeps every
answer and every simulated charge right — the oracle and property
suites stay green — so the row reads themselves are counted here,
through the production stack, on a warm table.
"""

from repro.config import PlatformConfig
from repro.core.modules.query_answering import SearchQuery, VisitScanCoprocessor
from repro.core.platform import MoDisSENSE
from repro.datagen import generate_pois, generate_visits
from repro.geo.bbox import BoundingBox

from .test_poi_attr_table import SpyTable

FRIENDS = tuple(range(1, 2001))
QUERY = SearchQuery(
    friend_ids=FRIENDS, keywords=("park",), limit=10,
    bbox=BoundingBox(37.0, 21.0, 41.0, 27.0),
)


def test_a_filtered_region_reads_rows_for_keyword_survivors_only(
    monkeypatch,
):
    pois = generate_pois(count=400, seed=21)
    invocations = []
    select = VisitScanCoprocessor.select

    def counted_select(aggregates, poi_attrs, bbox, wanted):
        gets = poi_attrs.gets
        result = select(aggregates, poi_attrs, bbox, wanted)
        survivors = sum(
            not wanted.isdisjoint(dict.get(poi_attrs, pid)[3])
            for pid in aggregates.counts
        )
        invocations.append((
            poi_attrs.gets - gets, survivors, result[2], len(aggregates),
        ))
        return result

    with MoDisSENSE(PlatformConfig.small()) as platform:
        platform.load_pois(pois)
        platform.load_visits(generate_visits(
            range(1, len(FRIENDS) + 1), pois, seed=21, mean=8.0, std=3.0
        ))
        platform.hbase.scan_cache.poi_attrs = SpyTable()
        monkeypatch.setattr(
            VisitScanCoprocessor, "select", staticmethod(counted_select)
        )
        cold = platform.search(QUERY)
        warm = platform.search(QUERY)

    assert [p.poi_id for p in warm.pois] == [p.poi_id for p in cold.pois]
    assert cold.cells_decoded > 0 and warm.cells_decoded == 0 and warm.pois
    assert len(invocations) == cold.regions_used + warm.regions_used == 16
    for gets, survivors, decoded, aggregated in invocations:
        assert gets <= survivors + decoded
        assert gets < aggregated
    # On the warm table nothing is decoded, and "park" is on about one
    # POI in ten.
    warm_reads = sum(gets for gets, *_ in invocations[8:])
    assert warm_reads * 4 < sum(inv[3] for inv in invocations[8:])
