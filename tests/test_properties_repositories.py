"""Property-based tests on repository key encoding and windowed scans.

The visits row key packs salt, user id, descending timestamp and POI id
into raw bytes; any encoding slip (like a separator byte inside a
fixed-width integer) silently corrupts scans.  These properties pin the
whole key path against a brute-force model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig
from repro.core.repositories.text_repo import CommentRecord, TextRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.hbase import HBaseCluster

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
    @settings(max_examples=100, deadline=None)
    def test_decode_cell_equals_key_plus_payload(self, uid, ts, pid):
        from repro.hbase import Cell
        from repro.core.serialization import encode_json

        cell = Cell(
            row=VisitsRepository.row_key(uid, ts, pid),
            family="v",
            qualifier=b"v",
            timestamp=ts,
            value=encode_json({"poi_id": pid, "grade": 0.75}),
        )
        struct = VisitsRepository.decode_cell(cell)
        assert (struct.user_id, struct.timestamp, struct.poi_id) == (uid, ts, pid)
        assert struct.grade == 0.75
        assert VisitsRepository.decode_payload(cell)["grade"] == 0.75
        assert VisitsRepository.decode_grade(cell.value) == 0.75

    @given(boundary_ints, st.floats(min_value=-100.0, max_value=100.0,
                                    allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_decode_grade_matches_full_parse(self, pid, grade):
        from repro.core.serialization import decode_json, encode_json

        for payload in (
            {"poi_id": pid, "grade": grade},  # normalized schema
            {"poi_id": pid, "grade": grade, "name": "x", "lat": 1.5,
             "lon": -2.5, "keywords": ["a"], "hotness": 0.0,
             "interest": 0.0},  # replicated schema
        ):
            value = encode_json(payload)
            assert (
                VisitsRepository.decode_grade(value)
                == decode_json(value)["grade"]
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
