"""Concurrency hammer for single-flight query coalescing.

N threads fire the *same* personalized query simultaneously; exactly one
fan-out must execute (observable through the HBase client's fan-out
epoch), the other N-1 callers must share its result, and the whole herd
must agree bit-for-bit.  Also covers leader-exception propagation,
distinct queries not coalescing, flight-table cleanup, and deterministic
rankings across repeated rounds.
"""

import threading
import time

import pytest

from repro.config import ClusterConfig
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
)
from repro.core.monitoring import PlatformMetrics
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.errors import QueryError
from repro.hbase import HBaseCluster
from repro.sqlstore import SqlEngine

HERD = 8
GATE_TIMEOUT_S = 10.0


def _build_stack(users=30, regions=8, nodes=4, metrics=None):
    cluster = HBaseCluster(
        ClusterConfig(num_nodes=nodes, regions_per_table=regions)
    )
    pois = POIRepository(SqlEngine())
    pois.add(POI(poi_id=1, name="A", lat=37.98, lon=23.73,
                 keywords=("x",), category="cafe"))
    pois.add(POI(poi_id=2, name="B", lat=37.99, lon=23.75,
                 keywords=("y",), category="bar"))
    visits = VisitsRepository(cluster, num_regions=regions)
    for uid in range(1, users + 1):
        visits.store(VisitStruct(user_id=uid, poi_id=1 + uid % 2,
                                 timestamp=uid, grade=0.5,
                                 poi_name="AB"[uid % 2],
                                 lat=37.98, lon=23.73,
                                 keywords=("x", "y")))
    qa = QueryAnsweringModule(
        pois, visits, metrics=metrics, coalesce=True
    )
    return cluster, qa


def _fingerprint(result):
    return [
        (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
        for p in result.pois
    ]


def _gate_until_herd(qa, key, herd_size):
    """Make the flight leader wait (inside its fan-out function) until
    the rest of the herd is blocked on the flight, so the test proves
    coalescing rather than lucky sequencing."""
    inner = qa.search_personalized_batch

    def gated(queries):
        deadline = time.monotonic() + GATE_TIMEOUT_S
        while qa.single_flight.waiting(key) < herd_size - 1:
            if time.monotonic() > deadline:
                raise AssertionError("herd never assembled")
            time.sleep(0.001)
        return inner(queries)

    qa.search_personalized_batch = gated


def _hammer(qa, query, herd_size):
    """Fire ``herd_size`` concurrent qa.search(query); returns results
    and exceptions index-aligned with the threads."""
    results = [None] * herd_size
    errors = [None] * herd_size
    start = threading.Barrier(herd_size)

    def worker(i):
        start.wait()
        try:
            results[i] = qa.search(query)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            errors[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(herd_size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=GATE_TIMEOUT_S * 2)
        assert not t.is_alive(), "hammer thread deadlocked"
    return results, errors


class TestCoalescing:
    def test_identical_herd_runs_one_fanout(self):
        metrics = PlatformMetrics()
        cluster, qa = _build_stack(metrics=metrics)
        query = SearchQuery(
            friend_ids=tuple(range(1, 31)), sort_by="interest"
        )
        key = QueryAnsweringModule._coalesce_key(query)
        _gate_until_herd(qa, key, HERD)
        epoch_before = cluster._fanout_epoch
        results, errors = _hammer(qa, query, HERD)
        assert errors == [None] * HERD
        # Exactly one fan-out hit the storage tier for the herd.
        assert cluster._fanout_epoch - epoch_before == 1
        assert metrics.counter("queries.coalesced") == HERD - 1
        assert qa.single_flight.coalesced_total == HERD - 1
        fingerprints = {tuple(map(tuple, _fingerprint(r)))
                        for r in results}
        assert len(fingerprints) == 1
        assert results[0].pois  # the shared answer is a real answer

    def test_flight_table_empty_after_round(self):
        cluster, qa = _build_stack()
        query = SearchQuery(friend_ids=(1, 2, 3), sort_by="hotness")
        _gate_until_herd(
            qa, QueryAnsweringModule._coalesce_key(query), 4
        )
        _hammer(qa, query, 4)
        assert qa.single_flight.in_flight() == 0
        assert qa.single_flight.waiting(
            QueryAnsweringModule._coalesce_key(query)
        ) == 0

    def test_distinct_queries_do_not_coalesce(self):
        metrics = PlatformMetrics()
        cluster, qa = _build_stack(metrics=metrics)
        queries = [
            SearchQuery(friend_ids=tuple(range(1, 11)),
                        sort_by="interest"),
            SearchQuery(friend_ids=tuple(range(1, 11)),
                        sort_by="hotness"),   # same friends, new sort
            SearchQuery(friend_ids=tuple(range(11, 21)),
                        sort_by="interest"),
        ]
        epoch_before = cluster._fanout_epoch
        results = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def worker(i):
            barrier.wait()
            results[i] = qa.search(queries[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=GATE_TIMEOUT_S)
            assert not t.is_alive()
        assert cluster._fanout_epoch - epoch_before == len(queries)
        assert metrics.counter("queries.coalesced") == 0
        assert all(r is not None for r in results)

    def test_leader_exception_propagates_to_all_waiters(self):
        cluster, qa = _build_stack()
        query = SearchQuery(friend_ids=(1, 2, 3, 4), sort_by="interest")
        key = QueryAnsweringModule._coalesce_key(query)

        def exploding(queries):
            deadline = time.monotonic() + GATE_TIMEOUT_S
            while qa.single_flight.waiting(key) < HERD - 1:
                if time.monotonic() > deadline:
                    raise AssertionError("herd never assembled")
                time.sleep(0.001)
            raise QueryError("storage tier on fire")

        qa.search_personalized_batch = exploding
        results, errors = _hammer(qa, query, HERD)
        assert results == [None] * HERD
        assert all(isinstance(e, QueryError) for e in errors)
        # The failed flight must not wedge the table: a later call
        # starts fresh (and succeeds once the path is healthy).
        del qa.search_personalized_batch  # restore the real method
        assert qa.single_flight.in_flight() == 0
        recovered = qa.search(query)
        assert recovered.pois

    def test_rankings_deterministic_across_rounds(self):
        cluster, qa = _build_stack()
        query = SearchQuery(
            friend_ids=tuple(range(1, 31)), sort_by="interest"
        )
        key = QueryAnsweringModule._coalesce_key(query)
        _gate_until_herd(qa, key, 5)
        first, errors = _hammer(qa, query, 5)
        assert errors == [None] * 5
        second, errors = _hammer(qa, query, 5)
        assert errors == [None] * 5
        assert _fingerprint(first[0]) == _fingerprint(second[0])

    def test_coalescing_off_by_default_for_direct_construction(self):
        cluster, qa = _build_stack()
        bare = QueryAnsweringModule(qa.pois, qa.visits)
        assert bare.single_flight is None
