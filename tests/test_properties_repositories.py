"""Property-based tests on repository key encoding and windowed scans.

The visits row key packs salt, user id, descending timestamp and POI id
into raw bytes; any encoding slip (like a separator byte inside a
fixed-width integer) silently corrupts scans.  These properties pin the
whole key path against a brute-force model.
"""

import dataclasses
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import ClusterConfig
from repro.core.repositories.text_repo import CommentRecord, TextRepository
from repro.core.repositories.visits import (
    POI_FIELD,
    SALT_FIELD,
    TS_FIELD,
    USER_FIELD,
    VisitsRepository,
    VisitStruct,
)
from repro.hbase import HBaseCluster, encode_int, encode_int_desc
from repro.hbase.bytes_util import salt_for

user_ids = st.integers(min_value=1, max_value=1 << 40)
timestamps = st.integers(min_value=0, max_value=1 << 40)
poi_ids = st.integers(min_value=1, max_value=1 << 20)

MAX64 = (1 << 64) - 1
#: Boundary-heavy id/timestamp values: zero, the 8-byte maximum, values
#: whose encodings are all-0x00/all-0xff, and salt edge cases (46368 is
#: the smallest id with salt 0xffff).
boundary_ints = st.one_of(
    st.sampled_from([0, 1, 255, 256, 46368, MAX64 - 1, MAX64]),
    st.integers(min_value=0, max_value=MAX64),
)


def fresh_visits_repo():
    cluster = HBaseCluster(ClusterConfig(num_nodes=2, regions_per_table=4))
    return VisitsRepository(cluster, num_regions=4), cluster


#: One repository per schema mode; the codec tests only encode with them.
CODEC_REPOS = [
    VisitsRepository(
        HBaseCluster(ClusterConfig(num_nodes=2, regions_per_table=4)),
        num_regions=4,
        schema_mode=mode,
    )
    for mode in ("replicated", "normalized")
]

#: Any finite double, the awkward ones first.
finite_doubles = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: Replicated numbers that compare equal across types and signs, so the
#: tail memo is probed with keys that collide unless it tells them apart.
poi_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, True]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
visit_structs = st.builds(
    VisitStruct,
    user_id=boundary_ints,
    poi_id=boundary_ints,
    timestamp=boundary_ints,
    grade=finite_doubles,
    poi_name=st.text(max_size=8),
    lat=poi_numbers,
    lon=poi_numbers,
    keywords=st.lists(st.text(max_size=4), max_size=3).map(tuple),
    hotness=poi_numbers,
    interest=poi_numbers,
)


class TestVisitKeyProperties:
    @given(
        st.lists(
            st.tuples(user_ids, timestamps, poi_ids),
            min_size=1,
            max_size=40,
            unique_by=lambda t: (t[0], t[1], t[2]),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_store_scan_roundtrip_exact(self, triples):
        repo, cluster = fresh_visits_repo()
        for uid, ts, pid in triples:
            repo.store(
                VisitStruct(user_id=uid, poi_id=pid, timestamp=ts, grade=0.5)
            )
        got = {(v.user_id, v.timestamp, v.poi_id) for v in repo.all_visits()}
        assert got == set(triples)

    @given(
        user_ids,
        st.lists(st.tuples(timestamps, poi_ids), min_size=1, max_size=30,
                 unique_by=lambda t: t),
        timestamps,
        timestamps,
    )
    @settings(max_examples=40, deadline=None)
    def test_window_scan_equals_filter(self, uid, visits, a, b):
        since, until = sorted((a, b))
        repo, cluster = fresh_visits_repo()
        for ts, pid in visits:
            repo.store(
                VisitStruct(user_id=uid, poi_id=pid, timestamp=ts, grade=0.1)
            )
        got = {
            (v.timestamp, v.poi_id)
            for v in repo.visits_of_user(uid, since=since, until=until)
        }
        expected = {
            (ts, pid) for ts, pid in visits if since <= ts < until
        }
        assert got == expected

    @given(
        user_ids,
        st.lists(st.tuples(timestamps, poi_ids), min_size=1, max_size=30,
                 unique_by=lambda t: t),
    )
    @settings(max_examples=40, deadline=None)
    def test_scan_order_is_newest_first(self, uid, visits):
        repo, cluster = fresh_visits_repo()
        for ts, pid in visits:
            repo.store(
                VisitStruct(user_id=uid, poi_id=pid, timestamp=ts, grade=0.1)
            )
        got = [v.timestamp for v in repo.visits_of_user(uid)]
        assert got == sorted(got, reverse=True)


class TestKeyOffsetProperties:
    """The lazy decode path reads *fixed* row-key byte offsets instead of
    splitting on the separator.  These properties pin those offsets to
    the authoritative :meth:`VisitsRepository.row_key` layout — if either
    side drifts, visits silently decode to the wrong user/time/POI.
    """

    @given(boundary_ints, boundary_ints, boundary_ints)
    @settings(max_examples=200, deadline=None)
    def test_decode_key_roundtrips_row_key(self, uid, ts, pid):
        row = VisitsRepository.row_key(uid, ts, pid)
        assert VisitsRepository.decode_key(row) == (uid, ts, pid)

    @given(boundary_ints, boundary_ints, boundary_ints)
    @example(0, 0, 0)
    @example((1 << 63) + 5, MAX64, (1 << 63) + 5)
    @settings(max_examples=200, deadline=None)
    def test_key_fields_are_where_row_key_puts_them(self, uid, ts, pid):
        """One home for the layout: the scan cache's ``row -> owner``
        (``user_of_row``) and the coprocessor's POI offset read the
        slices ``row_key`` fills, separator bytes inside the integers
        or not."""
        row = VisitsRepository.row_key(uid, ts, pid)
        assert VisitsRepository.user_of_row(row) == uid
        assert row[SALT_FIELD] == salt_for(uid)
        assert row[USER_FIELD] == encode_int(uid)
        assert row[TS_FIELD] == encode_int_desc(ts)
        assert row[POI_FIELD] == encode_int(pid)
        assert len(row) == POI_FIELD.stop
        assert row.startswith(VisitsRepository.user_prefix(uid))

    def test_user_of_row_under_every_salt(self):
        salts = set()
        for uid in range(1 << 17):
            row = VisitsRepository.row_key(uid, uid, uid)
            assert VisitsRepository.user_of_row(row) == uid
            salts.add(row[SALT_FIELD])
        assert len(salts) == 1 << 16

    @given(boundary_ints, boundary_ints, boundary_ints)
    @settings(max_examples=100, deadline=None)
    def test_decode_cell_equals_key_plus_payload(self, uid, ts, pid):
        for repo in CODEC_REPOS:
            cell = repo.visit_cell(
                VisitStruct(user_id=uid, poi_id=pid, timestamp=ts, grade=0.75)
            )
            struct = VisitsRepository.decode_cell(cell)
            assert (struct.user_id, struct.timestamp, struct.poi_id) == (
                uid, ts, pid,
            )
            assert struct.grade == 0.75
            assert VisitsRepository.decode_payload(cell)["grade"] == 0.75
            assert VisitsRepository.decode_grade(cell.value) == 0.75

    @given(visit_structs)
    @settings(max_examples=200, deadline=None)
    def test_decode_grade_matches_full_parse(self, visit):
        """The grade header holds the stored double bit for bit (``-0.0``
        and subnormals included), and the whole struct round-trips, in
        both schema modes."""
        bits = struct.pack(">d", visit.grade)
        for repo in CODEC_REPOS:
            cell = repo.visit_cell(visit)
            assert struct.pack(
                ">d", VisitsRepository.decode_grade(cell.value)
            ) == bits
            decoded = VisitsRepository.decode_cell(cell)
            assert struct.pack(">d", decoded.grade) == bits
            assert struct.pack(
                ">d", VisitsRepository.decode_payload(cell)["grade"]
            ) == bits
            if repo.schema_mode == "replicated":
                assert decoded == visit
            else:  # normalized: the key fields and the grade are all it keeps
                assert decoded == VisitStruct(
                    visit.user_id, visit.poi_id, visit.timestamp, visit.grade
                )

    @given(
        visit_structs,
        st.sampled_from(["lat", "lon", "hotness", "interest"]),
        st.lists(poi_numbers, min_size=2, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_tail_stores_the_unmemoized_bytes(
        self, base, field, numbers
    ):
        """The POI-tail memo never changes a stored byte: whatever was
        encoded before (one POI whose numbers merely compare equal —
        ``0.0`` / ``-0.0``, ``1`` / ``1.0`` / ``True`` — included), a
        payload is the grade header plus a fresh JSON encode of the
        tail."""
        from repro.core.serialization import encode_json

        for number in numbers:
            visit = dataclasses.replace(base, **{field: number})
            tail = encode_json(
                {
                    "poi_id": visit.poi_id, "name": visit.poi_name,
                    "lat": visit.lat, "lon": visit.lon,
                    "keywords": list(visit.keywords),
                    "hotness": visit.hotness, "interest": visit.interest,
                }
            )
            assert VisitsRepository.encode_payload(visit) == (
                struct.pack(">d", visit.grade) + tail
            )

    def test_non_numeric_grade_is_a_validation_error(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            VisitsRepository.encode_payload(
                VisitStruct(user_id=1, poi_id=1, timestamp=1, grade="high")
            )

    @given(user_ids, boundary_ints)
    @settings(max_examples=100, deadline=None)
    def test_degenerate_windows_scan_nothing(self, uid, point):
        """``until <= 0`` and ``since == until`` are empty [since, until)
        windows: the key range must be empty and the scan a no-op."""
        start, stop = VisitsRepository.time_range_keys(uid, None, 0)
        assert start == stop
        if point <= MAX64 - 1:  # encode_int_desc(until - 1) must fit
            start, stop = VisitsRepository.time_range_keys(
                uid, point, point
            )
            assert stop is not None and stop <= start

    @given(user_ids, timestamps, poi_ids)
    @settings(max_examples=100, deadline=None)
    def test_open_stop_key_bounds_every_row(self, uid, ts, pid):
        """Satellite regression: the stop key (when not open-ended) must
        sort above every row the user can own — the seed's ``b"\\xff"*12``
        sentinel did not."""
        start, stop = VisitsRepository.time_range_keys(uid, None, None)
        row = VisitsRepository.row_key(uid, ts, pid)
        assert start <= row
        assert stop is None or row < stop


class TestTextKeyProperties:
    @given(
        st.lists(
            st.tuples(user_ids, poi_ids, timestamps),
            min_size=1,
            max_size=30,
            unique_by=lambda t: t,
        ),
        timestamps,
        timestamps,
    )
    @settings(max_examples=30, deadline=None)
    def test_comment_window_scan_equals_filter(self, triples, a, b):
        since, until = sorted((a, b))
        cluster = HBaseCluster(ClusterConfig(num_nodes=2, regions_per_table=4))
        repo = TextRepository(cluster, num_regions=4)
        for uid, pid, ts in triples:
            repo.store(CommentRecord(uid, pid, ts, "t", 0.5))
        probe_uid, probe_pid, _ = triples[0]
        got = {
            c.timestamp
            for c in repo.comments(probe_uid, probe_pid, since, until)
        }
        expected = {
            ts
            for uid, pid, ts in triples
            if uid == probe_uid and pid == probe_pid and since <= ts < until
        }
        assert got == expected
