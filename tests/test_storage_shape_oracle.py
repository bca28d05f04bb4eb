"""Storage-shape oracle: the personalized answer does not depend on
where the LSM tree keeps the visits.

Every end-to-end workload and almost every query test reads
memstore-resident visits only (a region's share never reaches the flush
threshold), so the coprocessor's merged read path — and the choice
``Region.scan_cells`` makes between a run's slice and the merge — would
otherwise go unexercised above the unit level.  Here the same queries
(filtered and not, ``interest`` and ``hotness``, top-k on, scan cache
off / cold / warm) are answered with the same visits laid out six
ways, each time against ``search_personalized_client_side`` (which
streams ``Region.scan``), and ``Region.scans_sliced`` says which read
the coprocessor actually took.  The sixth is the shape the benchmark
measures since the load became a bulk load: base data in one store file
per region, newer visits in the memstore above it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, TopKConfig
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
)
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import (
    FAMILY,
    QUALIFIER,
    VisitsRepository,
    VisitStruct,
)
from repro.errors import ValidationError
from repro.geo import BoundingBox
from repro.hbase import HBaseCluster, RegionScanCache, RegionWALHandle
from repro.sqlstore import SqlEngine

NUM_USERS = 24
NUM_POIS = 30
NUM_REGIONS = 8
PER_USER_HALF = 6
FRIENDS = tuple(range(1, NUM_USERS + 1))

POIS = {
    pid: (
        "poi-%d" % pid,
        37.90 + (pid % 13) * 0.01,
        23.70 + (pid % 7) * 0.01,
        ("cafe",) if pid % 3 else ("museum", "history"),
    )
    for pid in range(1, NUM_POIS + 1)
}

QUERIES = [
    SearchQuery(friend_ids=FRIENDS, sort_by=sort_by, limit=limit, **filters)
    for sort_by in ("interest", "hotness")
    for limit, filters in (
        (5, {}),
        (8, {"bbox": BoundingBox(37.90, 23.70, 37.97, 23.74),
             "keywords": ("cafe",)}),
        (3, {"since": PER_USER_HALF // 2 * 100, "keywords": ("museum",)}),
    )
]


def visit(uid, pid, timestamp, grade):
    name, lat, lon, keywords = POIS[pid]
    return VisitStruct(
        user_id=uid, poi_id=pid, timestamp=timestamp, grade=grade,
        poi_name=name, lat=lat, lon=lon, keywords=keywords,
    )


class Stack:
    """A visits table whose regions keep WALs, and a top-k query module
    over it; ``halves`` are the older and newer half of every user's
    visits, so a flush between them splits every friend's key range
    over two store files."""

    def __init__(self, cache):
        self.cluster = HBaseCluster(
            ClusterConfig(num_nodes=4, regions_per_table=NUM_REGIONS)
        )
        pois = POIRepository(SqlEngine())
        for pid, (name, lat, lon, keywords) in POIS.items():
            pois.add(POI(poi_id=pid, name=name, lat=lat, lon=lon,
                         keywords=keywords, category="test"))
        self.visits = VisitsRepository(self.cluster, num_regions=NUM_REGIONS)
        self.regions = self.visits.table.regions
        for region in self.regions:
            region.wal = RegionWALHandle()
        if cache:
            self.cluster.attach_scan_cache(RegionScanCache(max_entries=4096))
        self.qa = QueryAnsweringModule(
            pois, self.visits, topk_config=TopKConfig(enabled=True)
        )
        rng = random.Random(17)
        self.halves = [
            [
                visit(uid, rng.randrange(1, NUM_POIS + 1),
                      (half * PER_USER_HALF + k) * 100 + uid,
                      rng.uniform(0.0, 5.0))
                for uid in FRIENDS
                for k in range(PER_USER_HALF)
            ]
            for half in (0, 1)
        ]

    def store(self, visits):
        for v in visits:
            self.visits.store(v)

    def flush(self):
        for region in self.regions:
            region.flush()

    def read_tallies(self):
        return (
            sum(r.scans_served for r in self.regions),
            sum(r.scans_sliced for r in self.regions),
        )


#: The friend whose range the shapes below spoil, and a visit of theirs
#: older than half of what the base data holds.
LATE_FRIEND = 5
LATE_TIMESTAMP = 250 + LATE_FRIEND


def lay_out(stack, shape):
    """Store both halves in the given storage shape; returns
    ``merges(query)``: how many of the coprocessor's friend scans must
    fall to the merge (the rest take slices) — none, all, or the one
    friend whose runs are not plain or interleave."""
    older, newer = stack.halves
    if shape == "memstore":
        stack.store(older + newer)
        return lambda query: 0
    if shape == "one_store_file":
        stack.store(older + newer)
        stack.flush()
        return lambda query: 0
    if shape == "bulk_loaded_base_under_memstore":
        # The base arrives in several calls and is sealed into one file
        # per region by the first read; newer visits are streamed.
        third = len(older) // 3
        for chunk in (older[:third], older[third:2 * third],
                      older[2 * third:]):
            assert stack.visits.bulk_load(chunk) == len(chunk)
        stack.store(newer)
        # Every friend now has two runs in range, the memstore's rows
        # all before the file's (newer timestamps sort first): slices,
        # concatenated.  One late-arriving old visit lands inside its
        # friend's file rows; that friend merges — unless the window
        # cuts the late visit off.
        stack.store([visit(LATE_FRIEND, 7, LATE_TIMESTAMP, 2.5)])
        return lambda query: (
            0 if query.since is not None and query.since > LATE_TIMESTAMP
            else 1
        )
    if shape == "two_files_and_memstore":
        stack.store(older)
        stack.flush()
        stack.store(newer)
        stack.flush()
        # The memstore shadows the files: one visit deleted, another
        # re-put with a new grade (same key, so the newest run wins).
        gone, regraded = older[0], newer[1]
        row = stack.visits.row_key(gone.user_id, gone.timestamp, gone.poi_id)
        stack.visits.table.region_for_row(row).delete(
            row, FAMILY, QUALIFIER, gone.timestamp
        )
        stack.visits.store(
            visit(regraded.user_id, regraded.poi_id, regraded.timestamp,
                  regraded.grade + 1.0)
        )
        # The two files' rows do not interleave (the newer half sorts
        # first), so only the friend whose memstore cells are a
        # tombstone and a second version merges.
        assert gone.user_id == regraded.user_id
        return lambda query: 1
    if shape == "ttl_cutoff":
        stack.store(older + newer)
        for region in stack.regions:
            region.set_ttl_cutoff(FAMILY, PER_USER_HALF * 100 // 3)
        return lambda query: len(query.friend_ids)
    assert shape == "crash_and_replay"
    stack.store(older)
    stack.flush()  # truncates the WALs: only the newer half replays
    stack.store(newer)
    for region in stack.regions:
        assert region.crash() > 0
        region.replay_cells(list(region.wal.replay()))
    return lambda query: 0  # a replayed memstore over the file: slices


def rows(result):
    return [
        (p.poi_id, p.name, p.lat, p.lon, pytest.approx(p.score),
         p.visit_count)
        for p in result.pois
    ]


SHAPES = ["memstore", "one_store_file", "two_files_and_memstore",
          "ttl_cutoff", "crash_and_replay",
          "bulk_loaded_base_under_memstore"]


@pytest.mark.parametrize("shape", SHAPES)
class TestStorageShapeOracle:
    def test_cache_off_matches_the_client_side_scan(self, shape):
        stack = Stack(cache=False)
        merges = lay_out(stack, shape)
        for query in QUERIES:
            want = stack.qa.search_personalized_client_side(query)
            assert want.pois, "a query that matches nothing proves nothing"
            served, sliced = stack.read_tallies()
            got = stack.qa.search(query)
            assert rows(got) == rows(want)
            assert got.records_scanned == want.records_scanned
            assert not got.degraded
            served = stack.read_tallies()[0] - served
            sliced = stack.read_tallies()[1] - sliced
            assert served == len(query.friend_ids)
            assert sliced == served - merges(query)

    def test_cache_cold_to_warm_matches_too(self, shape):
        stack = Stack(cache=True)
        lay_out(stack, shape)
        windows = set()
        for query in QUERIES:
            want = rows(stack.qa.search_personalized_client_side(query))
            # Opens the generations, fills them, is served from them.
            results = [stack.qa.search(query) for _ in range(3)]
            for got in results:
                assert rows(got) == want
            # Entries are per (friend, window): a query with a window an
            # earlier one filled starts warm.
            if (query.since, query.until) not in windows:
                windows.add((query.since, query.until))
                assert results[0].cache_hits == 0
                assert results[0].records_scanned > 0
            assert results[2].cache_hits == len(query.friend_ids)
            assert results[2].records_scanned == 0


def test_the_shapes_hold_the_same_visits_or_say_why():
    """Shapes (i), (ii) and (v) answer identically; (iii), (iv) and
    (vi) differ from them only by the visits they shadow, expire or
    add."""
    answers = {}
    for shape in SHAPES:
        stack = Stack(cache=False)
        lay_out(stack, shape)
        answers[shape] = [rows(stack.qa.search(q)) for q in QUERIES]
    assert answers["memstore"] == answers["one_store_file"]
    assert answers["memstore"] == answers["crash_and_replay"]
    assert answers["two_files_and_memstore"] != answers["memstore"]
    assert answers["ttl_cutoff"] != answers["memstore"]
    assert answers["bulk_loaded_base_under_memstore"] != answers["memstore"]


def test_bulk_loaded_base_is_one_sealed_file_per_region():
    """Three load calls, one store file: the runs were staged and the
    first read sealed them."""
    stack = Stack(cache=False)
    lay_out(stack, "bulk_loaded_base_under_memstore")
    for region in stack.regions:
        assert len(region.wal) == region.approx_rows(FAMILY) - sum(
            len(sf) for sf in region.store_files_for(FAMILY)
        )  # only the streamed visits were logged
        assert region.store_file_count(FAMILY) <= 1


# ------------------------------------------------- bulk cell == visit cell

FIELDS = dict(
    user_id=st.integers(-3, 1 << 65),
    poi_id=st.integers(-3, 1 << 65),
    timestamp=st.integers(-3, 1 << 65),
    grade=st.one_of(st.floats(allow_nan=False), st.integers(-5, 5),
                    st.just("high"), st.none()),
    poi_name=st.text(max_size=8),
    lat=st.floats(-90, 90),
    lon=st.floats(-180, 180),
    keywords=st.lists(st.text(max_size=5), max_size=3).map(tuple),
)


class TestBulkCellIsTheVisitCell:
    """The bulk load builds its cells from one prefix per user run, one
    packed key suffix and the tail memo; ``visit_cell`` composes them
    part by part.  Same bytes, or the same refusal."""

    @given(st.fixed_dictionaries(FIELDS),
           st.sampled_from(["replicated", "normalized"]))
    @settings(max_examples=300, deadline=None)
    def test_same_row_and_value_or_same_error(self, fields, schema_mode):
        repo = VisitsRepository.__new__(VisitsRepository)
        repo.schema_mode = schema_mode
        record = VisitStruct(**fields)
        try:
            want = repo.visit_cell(record)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                repo.bulk_cells([record])
            assert str(caught.value) == str(exc)
            return
        (got,) = repo.bulk_cells([record])
        assert (got.row, got.value) == (want.row, want.value)
        assert got == want

    def test_generator_records_load_without_a_wrapper(self):
        from repro.datagen.visits import VisitRecord

        repo = VisitsRepository.__new__(VisitsRepository)
        repo.schema_mode = "replicated"
        records = [
            VisitRecord(user_id=uid, poi_id=9, timestamp=77 + k, grade=0.25,
                        poi_name="n", lat=1.0, lon=2.0, keywords=("a", "b"))
            for uid in (46368, 3, 46368) for k in range(2)
        ]
        assert repo.bulk_cells(records) == [
            repo.visit_cell(VisitStruct(
                user_id=r.user_id, poi_id=9, timestamp=r.timestamp,
                grade=0.25, poi_name="n", lat=1.0, lon=2.0,
                keywords=("a", "b")))
            for r in records
        ]
