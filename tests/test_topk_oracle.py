"""Differential oracle suite for threshold-algorithm top-k early
termination (:mod:`repro.core.modules.topk`).

The contract under test: every pruned personalized answer is
**byte-identical** to the exhaustive request's — every region's stream
drained, ``topk_batch=0`` (same fan-out, same float fold orders — scores compare with ``==``,
not approx), and matches the no-coprocessor
``search_personalized_client_side`` baseline in ranked order and counts
(scores approx there, as in ``test_routing`` — the single-machine
baseline folds grades in a different float-addition grouping).

The randomized sections replay 200+ seeded workloads — varying k,
friend sets, time windows, spatial/keyword filters, sort orders, cache
on/off/warm/stale, and injected faults — because the failure mode of a
pruning optimization is *silently wrong answers*.

Interaction regressions ride along: a proof-pruned region must never
appear in ``missing_regions`` or lower coverage (it is complete *by
proof*), deadline aborts and proof aborts must be distinguishable in
traces, and a seqid bump must stale-out cached partials under top-k
exactly as it does on the exhaustive path.
"""

import itertools
import random
import sys
import threading
import time

import pytest

from benchmarks._workload import drain
from repro.config import ClusterConfig, FaultsConfig, TopKConfig
from repro.core.faults import FaultInjector
from repro.core.modules.query_answering import (
    QueryAnsweringModule,
    SearchQuery,
    VisitScanCoprocessor,
)
from repro.core.modules.topk import PartialAggregates, TopKPartialStream
from repro.core.monitoring import PlatformMetrics
from repro.core.repositories.poi import POI, POIRepository
from repro.core.repositories.visits import VisitsRepository, VisitStruct
from repro.core.tracing import Tracer
from repro.errors import DegradedResultWarning
from repro.geo import BoundingBox
from repro.hbase import CoprocessorContext, HBaseCluster, RegionScanCache
from repro.hbase.cancellation import (
    CancellationToken,
    REASON_DEADLINE,
    REASON_TOPK_PROOF,
)
import repro.hbase.region as region_mod
from repro.sqlstore import SqlEngine

NUM_USERS = 30
NUM_POIS = 40
NUM_REGIONS = 8

#: Fixed POI universe: id -> (name, lat, lon, keywords).
POIS = {
    pid: (
        "poi-%d" % pid,
        37.90 + (pid % 13) * 0.01,
        23.70 + (pid % 7) * 0.01,
        ("cafe",) if pid % 3 else ("museum", "history"),
    )
    for pid in range(1, NUM_POIS + 1)
}

BBOXES = (
    None,
    BoundingBox(37.90, 23.70, 37.97, 23.74),
    BoundingBox(37.95, 23.72, 38.10, 23.90),
)

KEYWORD_CHOICES = ((), ("cafe",), ("museum",), ("history", "cafe"))


def fingerprint(result):
    """The caller-observable rows, bit-exact (no approx on scores)."""
    return [
        (p.poi_id, p.name, p.lat, p.lon, p.score, p.visit_count)
        for p in result.pois
    ]


def approx_rows(result):
    """Ranked rows with approx scores, for the client-side baseline
    whose float fold grouping legitimately differs."""
    return [
        (p.poi_id, pytest.approx(p.score), p.visit_count)
        for p in result.pois
    ]


class Stack:
    """Cluster + repositories + query module with togglable top-k."""

    def __init__(
        self,
        data_seed,
        cache=False,
        faults_config=None,
        injector=None,
        tracer=None,
        batch_size=16,
    ):
        # Region ids are allocated from a module-global counter; reset it
        # so paired stacks see identical region ids (the fault injector
        # keys its decisions on them).
        region_mod._region_ids = itertools.count()
        self.cluster = HBaseCluster(
            ClusterConfig(num_nodes=4, regions_per_table=NUM_REGIONS),
            faults_config=faults_config,
        )
        if injector is not None:
            self.cluster.fault_injector = injector
        self.pois = POIRepository(SqlEngine())
        for pid, (name, lat, lon, keywords) in POIS.items():
            self.pois.add(
                POI(poi_id=pid, name=name, lat=lat, lon=lon,
                    keywords=keywords, category="test")
            )
        self.visits = VisitsRepository(self.cluster, num_regions=NUM_REGIONS)
        self.scan_cache = RegionScanCache(max_entries=4096) if cache else None
        if self.scan_cache is not None:
            self.cluster.scan_cache = self.scan_cache
        self.topk_cfg = TopKConfig(batch_size=batch_size)
        self.qa = QueryAnsweringModule(
            self.pois, self.visits, tracer=tracer, topk_config=self.topk_cfg
        )
        self._ts = 0
        self.load(data_seed)

    def load(self, seed, per_user=30):
        rng = random.Random(seed)
        for uid in range(1, NUM_USERS + 1):
            for _ in range(per_user):
                self.write(rng, uid)

    def write(self, rng, uid=None):
        self._ts += 1
        pid = rng.choice(list(POIS))
        name, lat, lon, keywords = POIS[pid]
        self.visits.store(
            VisitStruct(
                user_id=uid or rng.randrange(1, NUM_USERS + 1),
                poi_id=pid,
                timestamp=self._ts,
                # Arbitrary float grades on purpose: sums are inexact, so
                # any fold-order difference between the pruned and
                # exhaustive paths would surface as a bit mismatch.
                grade=rng.uniform(0.0, 5.0),
                poi_name=name,
                lat=lat,
                lon=lon,
                keywords=keywords,
            )
        )

    def random_query(self, rng):
        k = rng.choice((1, 2, 3, 5, 10, 25))
        width = rng.randrange(3, NUM_USERS + 1)
        friends = tuple(rng.sample(range(1, NUM_USERS + 1), width))
        since, until = None, None
        if rng.random() < 0.35:
            since = rng.randrange(0, max(1, self._ts))
            until = since + rng.randrange(1, self._ts + 2)
        return SearchQuery(
            bbox=rng.choice(BBOXES),
            keywords=rng.choice(KEYWORD_CHOICES),
            friend_ids=friends,
            since=since,
            until=until,
            sort_by=rng.choice(("interest", "hotness")),
            limit=k,
        )

    def search_topk(self, query):
        return self.qa.search(query)

    def search_exhaustive(self, query):
        drain(self.qa)
        try:
            return self.qa.search(query)
        finally:
            drain(self.qa, on=False)


# --------------------------------------------------------------------------
# Randomized differential section: pruned vs exhaustive vs client-side.
# --------------------------------------------------------------------------


class TestTopKOracleDifferential:
    """120 seeded workloads, no cache, no faults."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_workloads(self, seed):
        stack = Stack(data_seed=seed)
        rng = random.Random(1000 + seed)
        avoided_any = False
        for _ in range(30):
            query = stack.random_query(rng)
            pruned = stack.search_topk(query)
            exhaustive = stack.search_exhaustive(query)
            oracle = stack.qa.search_personalized_client_side(query)
            assert fingerprint(pruned) == fingerprint(exhaustive), query
            assert approx_rows(pruned) == approx_rows(oracle), query
            # The exhaustive run must be untouched by the module.
            assert exhaustive.cells_avoided == 0
            assert exhaustive.regions_pruned_early == 0
            avoided_any |= pruned.cells_avoided > 0
        assert avoided_any, "no workload ever avoided a decode"

    def test_large_case_always_avoids_cells(self):
        """The headline case — small k over every friend — must prune."""
        stack = Stack(data_seed=99)
        for sort_by in ("interest", "hotness"):
            for k in (1, 5, 10):
                query = SearchQuery(
                    friend_ids=tuple(range(1, NUM_USERS + 1)),
                    sort_by=sort_by,
                    limit=k,
                )
                pruned = stack.search_topk(query)
                exhaustive = stack.search_exhaustive(query)
                assert fingerprint(pruned) == fingerprint(exhaustive)
                assert pruned.cells_avoided > 0
                # Both merges decode the k winners only.
                assert pruned.cells_decoded <= k
                assert exhaustive.cells_decoded <= k

    def test_batch_size_never_changes_the_answer(self):
        """Batch size trades rounds for pruning — never correctness."""
        baseline = Stack(data_seed=7)
        query = SearchQuery(
            friend_ids=tuple(range(1, NUM_USERS + 1)), limit=5
        )
        want = fingerprint(baseline.search_exhaustive(query))
        for batch in (1, 2, 7, 64, 1024):
            stack = Stack(data_seed=7, batch_size=batch)
            assert fingerprint(stack.search_topk(query)) == want


# --------------------------------------------------------------------------
# Cache section: top-k fills and reads the scan cache on its own.
# --------------------------------------------------------------------------

ALL_FRIENDS = tuple(range(1, NUM_USERS + 1))


class TestTopKOracleWithCache:
    """Cold -> warm by top-k alone, entries shared between the modes,
    write-hot regions never admitted, and a concurrent reader/writer
    run — every answer against a cache-off execution."""

    def _cache_off(self, stack, search, query):
        stack.cluster.scan_cache = None
        try:
            return search(query)
        finally:
            stack.cluster.scan_cache = stack.scan_cache

    @pytest.mark.parametrize("seed", range(2))
    def test_cold_and_warm_cache_identical(self, seed):
        stack = Stack(data_seed=seed, cache=True)
        rng = random.Random(2000 + seed)
        for _ in range(10):
            query = stack.random_query(rng)
            want = fingerprint(
                self._cache_off(stack, stack.search_exhaustive, query)
            )
            # No exhaustive seeding: the cache is opened, filled and
            # read by top-k queries alone.
            for _attempt in range(3):
                warm = stack.search_topk(query)
                assert fingerprint(warm) == want, query
            assert warm.cache_misses == 0
            assert warm.records_scanned == 0
            if query.since is None:
                assert warm.cache_hits == len(query.friend_ids)
            if not (query.bbox or query.keywords):
                # Unfiltered: only the k winners are ever decoded.
                assert warm.cells_decoded <= query.limit

    def test_topk_alone_takes_the_cache_from_cold_to_warm(self):
        stack = Stack(data_seed=3, cache=True)
        query = SearchQuery(friend_ids=ALL_FRIENDS, limit=5)
        want = fingerprint(
            self._cache_off(stack, stack.search_exhaustive, query)
        )
        # First touch records each region's seqid and stores nothing.
        first = stack.search_topk(query)
        assert (first.cache_hits, first.cache_misses) == (0, NUM_USERS)
        assert len(stack.scan_cache) == 0
        # The regions were quiet since: the second query fills.
        second = stack.search_topk(query)
        assert (second.cache_hits, second.cache_misses) == (0, NUM_USERS)
        assert len(stack.scan_cache) == NUM_USERS
        third = stack.search_topk(query)
        assert (third.cache_hits, third.cache_misses) == (NUM_USERS, 0)
        assert third.records_scanned == 0
        for result in (first, second, third):
            assert fingerprint(result) == want
        # Unfiltered: only the k winners are ever decoded — once, by the
        # first query, for the whole cluster (the POI attribute table).
        assert 0 < first.cells_decoded <= query.limit
        assert second.cells_decoded == third.cells_decoded == 0

    @pytest.mark.parametrize("filler", ["exhaustive", "topk"])
    def test_entry_stored_by_either_mode_serves_the_other(self, filler):
        stack = Stack(data_seed=4, cache=True)
        query = SearchQuery(
            friend_ids=ALL_FRIENDS, limit=5, keywords=("cafe",)
        )
        fill, read = (
            (stack.search_exhaustive, stack.search_topk)
            if filler == "exhaustive"
            else (stack.search_topk, stack.search_exhaustive)
        )
        want = fingerprint(self._cache_off(stack, read, query))
        fill(query)  # opens the generations
        fill(query)  # stores
        served = read(query)
        assert (served.cache_hits, served.cache_misses) == (NUM_USERS, 0)
        assert served.records_scanned == 0
        assert fingerprint(served) == want
        if filler == "exhaustive":
            # The exhaustive mode parsed every POI and left the
            # attribute table behind: top-k re-parses nothing, even
            # to evaluate the keyword filter.
            assert served.cells_decoded == 0

    def test_seqid_bump_stales_topk_cached_partials(self, monkeypatch):
        """A write between queries must invalidate the written friends'
        cached partials for the top-k path exactly as for the exhaustive
        one: written friends miss, untouched friends hit — and a region
        whose journal overflowed between two queries is not admitted."""
        stack = Stack(data_seed=5, cache=True)
        rng = random.Random(55)
        query = SearchQuery(friend_ids=ALL_FRIENDS, limit=5)

        def check(after, hits):
            assert (after.cache_hits, after.cache_misses) == (
                hits, NUM_USERS - hits
            )
            assert fingerprint(after) == fingerprint(
                self._cache_off(stack, stack.search_exhaustive, query)
            )
            assert approx_rows(after) == approx_rows(
                stack.qa.search_personalized_client_side(query)
            )

        for _ in range(3):
            warm = stack.search_topk(query)
        assert warm.cache_hits > 0 and warm.cache_misses == 0
        for _ in range(3):
            # Every friend written: every entry stale.  The journal
            # followed the writes, so the regions stay admitted and the
            # query that missed refilled them.
            for uid in ALL_FRIENDS:
                stack.write(rng, uid)
            check(stack.search_topk(query), hits=0)
            assert len(stack.scan_cache) == NUM_USERS
        written = ALL_FRIENDS[::3]
        for uid in written:
            stack.write(rng, uid)
        check(stack.search_topk(query), hits=NUM_USERS - len(written))
        check(stack.search_topk(query), hits=NUM_USERS)
        # Three writes per friend against a two-row journal: every
        # region overflows, answers "cannot enumerate", and is opened
        # afresh instead of admitted.
        monkeypatch.setattr(region_mod, "JOURNAL_MAX", 2)
        for _ in range(2):
            for uid in ALL_FRIENDS * 3:
                stack.write(rng, uid)
            check(stack.search_topk(query), hits=0)
            assert len(stack.scan_cache) == 0
        assert stack.scan_cache.stats()["journal_overflows"] > 0

    def test_concurrent_queries_and_writer_match_client_side(self):
        """Two query threads and one writer share the regions: the
        writer's users are outside the queried friend set, so the right
        answer never changes while seqids move under the readers."""
        stack = Stack(data_seed=6, cache=True)
        queried = tuple(range(1, 21))
        written = tuple(range(21, NUM_USERS + 1))
        queries = [
            SearchQuery(friend_ids=queried, limit=5),
            SearchQuery(
                friend_ids=queried[::2], limit=3, sort_by="hotness",
                keywords=("cafe",),
            ),
        ]
        want = [
            (
                fingerprint(
                    self._cache_off(stack, stack.search_exhaustive, query)
                ),
                approx_rows(stack.qa.search_personalized_client_side(query)),
            )
            for query in queries
        ]
        failures = []
        stop = threading.Event()

        def reader(index):
            try:
                for _ in range(40):
                    result = stack.search_topk(queries[index])
                    assert not result.degraded
                    assert fingerprint(result) == want[index][0]
                    assert approx_rows(result) == want[index][1]
            except BaseException as exc:  # surfaced by the main thread
                failures.append(exc)

        def writer():
            rng = random.Random(66)
            try:
                while not stop.is_set():
                    stack.write(rng, rng.choice(written))
                    time.sleep(0.002)
            except BaseException as exc:
                failures.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [
            threading.Thread(target=reader, args=(0,)),
            threading.Thread(target=reader, args=(1,)),
        ]
        write_thread = threading.Thread(target=writer)
        try:
            write_thread.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stop.set()
            write_thread.join(timeout=30)
            assert not any(t.is_alive() for t in threads + [write_thread])
            assert not failures, failures
            stats = stack.scan_cache.stats()
            assert stats["hits"] + stats["misses"] == 40 * (20 + 10)
            # The writer never touches a queried friend, so sustained
            # writes to the queried regions leave their entries alone.
            assert stats["hits"] > 0
            assert stats["entries"] <= stats["max_entries"]
        finally:
            stop.set()
            sys.setswitchinterval(switch)


# --------------------------------------------------------------------------
# Fault section: identical injector decisions, pruned vs exhaustive.
# --------------------------------------------------------------------------


def _paired_fault_stacks(seed, **rates):
    """Two identically-built stacks whose injectors make identical
    decisions (same config seed, same region ids, same fan-out epochs),
    one queried with top-k on and one with it off."""
    stacks = []
    for _ in range(2):
        fcfg = FaultsConfig(enabled=True, seed=seed, **rates)
        stacks.append(
            Stack(
                data_seed=seed,
                faults_config=fcfg,
                injector=FaultInjector(fcfg),
            )
        )
    return stacks


class TestTopKUnderFaults:
    """40 faulted workloads: errors, corruption, lost regions."""

    @pytest.mark.parametrize(
        "seed,rates",
        [
            (11, {"region_error_rate": 0.2}),
            (12, {"corrupt_rate": 0.2}),
            (13, {"region_error_rate": 0.15, "corrupt_rate": 0.15}),
            (14, {"lost_region_fraction": 1.0}),
        ],
    )
    def test_fault_injected_workloads(self, seed, rates):
        import warnings

        topk_stack, plain_stack = _paired_fault_stacks(seed, **rates)
        if "lost_region_fraction" in rates:
            # Region loss needs a node-failure event; stage the same
            # deterministic one on both injectors.
            for stack in (topk_stack, plain_stack):
                stack.cluster.fault_injector.on_node_failed(0, [2, 5])
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        for _ in range(10):
            query_a = topk_stack.random_query(rng_a)
            query_b = plain_stack.random_query(rng_b)
            assert query_a == query_b  # same workload stream
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                pruned = topk_stack.search_topk(query_a)
                exhaustive = plain_stack.search_exhaustive(query_b)
            assert fingerprint(pruned) == fingerprint(exhaustive), query_a
            assert pruned.missing_regions == exhaustive.missing_regions
            assert pruned.coverage == exhaustive.coverage
            assert pruned.degraded == exhaustive.degraded


# --------------------------------------------------------------------------
# Interaction regressions.
# --------------------------------------------------------------------------


def _region_spans(trace):
    out = []

    def walk(node):
        if node["name"] == "region.scan":
            out.append(node)
        for child in node.get("children", ()):
            walk(child)

    walk(trace["root"])
    return out


class TestTopKInteractions:
    def test_pruned_region_is_not_missing_and_keeps_coverage(self):
        """Complete-by-proof: early-terminated regions are exact, so
        they never degrade the answer."""
        stack = Stack(data_seed=21)
        query = SearchQuery(
            friend_ids=tuple(range(1, NUM_USERS + 1)), limit=1
        )
        result = stack.search_topk(query)
        assert result.regions_pruned_early > 0
        assert result.missing_regions == ()
        assert result.coverage == 1.0
        assert result.degraded is False

    def test_pruned_under_degraded_mode(self):
        """With a region genuinely lost, proof-pruned regions still stay
        out of ``missing_regions`` — only the lost one degrades."""
        fcfg = FaultsConfig(
            enabled=True, seed=31, lost_region_fraction=1.0
        )
        stack = Stack(
            data_seed=31, faults_config=fcfg, injector=FaultInjector(fcfg)
        )
        # Deterministic region loss: a node fails and region 3's data
        # dies with it until recovery.
        stack.cluster.fault_injector.on_node_failed(0, [3])
        import warnings

        query = SearchQuery(
            friend_ids=tuple(range(1, NUM_USERS + 1)), limit=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            pruned = stack.search_topk(query)
            exhaustive = stack.search_exhaustive(query)
        assert pruned.degraded
        assert pruned.missing_regions == exhaustive.missing_regions
        assert pruned.coverage == exhaustive.coverage
        # Proof-pruning happened on top of the loss, and the pruned
        # regions are disjoint from the missing ones by construction
        # (a lost region never produced a stream to prune).
        assert pruned.regions_pruned_early > 0
        assert fingerprint(pruned) == fingerprint(exhaustive)

    def test_proof_abort_vs_deadline_abort_distinguishable_in_traces(self):
        """A proof abort tags ``pruned_early``; a deadline abort tags
        ``cancel_reason=deadline`` — operators can tell them apart."""
        tracer = Tracer(enabled=True)
        stack = Stack(data_seed=41, tracer=tracer)
        query = SearchQuery(
            friend_ids=tuple(range(1, NUM_USERS + 1)), limit=1
        )
        result = stack.search_topk(query)
        assert result.regions_pruned_early > 0
        trace = tracer.last_trace()
        spans = _region_spans(trace)
        pruned_tags = [
            s["tags"] for s in spans if s["tags"].get("pruned_early")
        ]
        assert len(pruned_tags) == result.regions_pruned_early
        for tags in pruned_tags:
            # Proof aborts never masquerade as deadline cancels.
            assert tags.get("cancel_reason") != REASON_DEADLINE
            assert "topk_avoided" in tags

    def test_deadline_abort_marks_stream_aborted_not_pruned(self):
        """Unit-level distinguishability on the stream itself: the same
        short-circuit mechanism records *why* emission stopped."""
        aggregates = PartialAggregates.from_rows(
            (pid, float(10 - pid), 1) for pid in range(1, 6)
        )
        attrs = {pid: ("p%d" % pid, 0.0, 0.0, ()) for pid in range(1, 6)}

        proof = TopKPartialStream(
            region_id=0, aggregates=aggregates,
            poi_attrs=attrs, top_k=1, hotness=False, batch=2,
        )
        proof.short_circuit(REASON_TOPK_PROOF)
        assert proof.pruned and not proof.aborted
        assert proof.prune_token.reason == REASON_TOPK_PROOF

        deadline = TopKPartialStream(
            region_id=1, aggregates=aggregates,
            poi_attrs=attrs, top_k=1, hotness=False, batch=2,
        )
        deadline.short_circuit(REASON_DEADLINE)
        assert deadline.aborted and not deadline.pruned
        assert deadline.prune_token.reason == REASON_DEADLINE

    def test_deadline_mid_emission_degrades_with_aborted_regions(self):
        """A token tripping during emission aborts the merge: discovered
        candidates are kept, unfinished regions land in missing."""
        from repro.core.modules.query_answering import VisitScanCoprocessor

        streams = []
        for region_id in range(3):
            aggregates = PartialAggregates.from_rows(
                (pid, float(50 - pid), 1) for pid in range(1, 40)
            )
            token = CancellationToken(
                deadline_ms=1.0, cost_per_record_ms=1.0
            )
            streams.append(
                TopKPartialStream(
                    region_id=region_id,
                    aggregates=aggregates,
                    poi_attrs={
                        p: ("p%d" % p, 0.0, 0.0, ()) for p in aggregates.counts
                    },
                    top_k=5,
                    hotness=False,
                    batch=4,
                    cells_scanned=100,  # already over the 1ms budget
                    deadline_token=token,
                )
            )
        merged, stats = VisitScanCoprocessor().stream_merge(streams)
        assert stats["aborted_regions"] == [0, 1, 2]
        assert stats["pruned_regions"] == 0
        for stream in streams:
            assert stream.aborted
            assert stream.prune_token.reason == REASON_DEADLINE

    def test_brownout_per_region_limit_disables_topk(self):
        """A capped stream has no sound bound: a brownout request drains
        its capped streams, and the merger runs no round."""
        stack = Stack(data_seed=61)
        query = SearchQuery(friend_ids=ALL_FRIENDS, limit=5)
        routed = stack.qa._route_query(query, per_region_limit=7)
        streams = []
        for region, request in routed.items():
            assert (request.top_k, request.topk_batch) == (5, 0)
            assert request.per_region_limit == 7
            streams.append(
                VisitScanCoprocessor().run(CoprocessorContext(region), request)
            )
        merged, stats = VisitScanCoprocessor().stream_merge(streams)
        assert stats["rounds"] == stats["probes"] == 0
        assert len(merged) == 5
        for stream in streams:
            assert stream.emitted == stream.shipped == min(7, stream.size)
            assert stream.probe_hits == 0
        routed = stack.qa._route_query(query)
        for request in routed.values():
            assert request.top_k == 5
            assert request.topk_batch == stack.topk_cfg.batch_size

    def test_explain_reports_topk_profile(self):
        stack = Stack(data_seed=71)
        query = SearchQuery(
            friend_ids=tuple(range(1, NUM_USERS + 1)), limit=2
        )
        plan = stack.qa.explain_personalized(query)
        assert plan["topk"]["enabled"]
        assert plan["topk"]["rounds"] > 0
        assert plan["topk"]["cells_avoided"] > 0
        assert plan["topk"]["pruned_regions"] > 0
        drain(stack.qa)
        plan_off = stack.qa.explain_personalized(query)
        assert not plan_off["topk"]["enabled"]
        assert plan_off["topk"]["cells_avoided"] == 0

    def test_a_drained_merge_is_not_a_topk_query(self):
        """The cluster's ``topk.queries`` metric counts pruning merges;
        a drained one (an exhaustive request, or a brownout's cap) adds
        nothing."""
        metrics = PlatformMetrics()
        stack = Stack(data_seed=71)
        stack.cluster.metrics = metrics
        query = SearchQuery(friend_ids=ALL_FRIENDS, limit=2)
        stack.search_topk(query)
        assert metrics.counter("topk.queries") == 1
        stack.search_exhaustive(query)
        assert metrics.counter("topk.queries") == 1
