"""Query Answering Module — the paper's core query path (Section 2.2).

Non-personalized queries (no friend list) become SQL selects against the
POI repository.  Personalized queries fan out to HBase coprocessors:
each region-local endpoint scans the visits of the friends whose salted
keys it owns, filters by the user's criteria, aggregates per POI, and
returns its partial as one score-sorted stream; one merger folds the
streams into the ranked top k (draining them, or pruning with the
threshold algorithm) — exactly the mechanism behind Figures 2 and 3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from heapq import nsmallest
from itertools import compress, filterfalse, repeat
from operator import ge, itemgetter, le
from typing import Dict, List, Optional, Sequence, Tuple

from ...config import AdmissionConfig, TopKConfig
from ...errors import DegradedResultWarning, QueryError
from ...geo import BoundingBox
from ...hbase import Coprocessor, CoprocessorContext
from ...hbase.cache import FriendPartial, POIAttrTable
from ..repositories.poi import POIRepository
from ..admission import AdmissionController
from ..caching import HotPOICache
from ..repositories.visits import (
    FAMILY,
    POI_FIELD,
    SCHEMA_NORMALIZED,
    VisitsRepository,
)
from ..tracing import NULL_TRACER, Tracer
from .topk import (
    PartialAggregates,
    TopKMerger,
    TopKPartialStream,
    decode_attrs,
    negated_keys,
)

SORT_INTEREST = "interest"
SORT_HOTNESS = "hotness"

_LAT = itemgetter(1)
_LON = itemgetter(2)


def _keep(mask, items: list, rows: list) -> Tuple[list, list]:
    """``items`` and their attribute ``rows`` where ``mask`` is true."""
    mask = list(mask)
    return list(compress(items, mask)), list(compress(rows, mask))


@dataclass
class SearchQuery:
    """A search request (paper Section 2.2's parameter list).

    ``friend_ids`` non-empty makes the query personalized.
    """

    bbox: Optional[BoundingBox] = None
    keywords: Tuple = ()
    friend_ids: Tuple = ()
    since: Optional[int] = None
    until: Optional[int] = None
    sort_by: str = SORT_INTEREST
    limit: int = 10
    #: Client-supplied end-to-end deadline (ms).  Propagated through the
    #: fan-out, where it tightens the config deadline and arms
    #: cooperative cancellation: region scans abort mid-scan once their
    #: simulated spend blows the budget (the answer then degrades to the
    #: surviving partials).  None — the default — changes nothing.
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sort_by not in (SORT_INTEREST, SORT_HOTNESS):
            raise QueryError(
                "sort_by must be %r or %r" % (SORT_INTEREST, SORT_HOTNESS)
            )
        if self.limit < 1:
            raise QueryError("limit must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise QueryError("deadline_ms must be positive")
        self.keywords = tuple(k.lower() for k in self.keywords)
        self.friend_ids = tuple(self.friend_ids)

    @property
    def personalized(self) -> bool:
        return bool(self.friend_ids)


@dataclass(frozen=True)
class ScoredPOI:
    """One result row."""

    poi_id: int
    name: str
    lat: float
    lon: float
    score: float
    visit_count: int


@dataclass
class SearchResult:
    """Result rows plus execution metadata for the benchmarks."""

    pois: List[ScoredPOI]
    personalized: bool
    #: Simulated end-to-end latency (coprocessor path only).
    latency_ms: float = 0.0
    records_scanned: int = 0
    regions_used: int = 0
    #: Regions never invoked because client-side routing proved they
    #: own none of the query's friends.
    regions_pruned: int = 0
    #: Visit payloads fully JSON-decoded region-side; lazy decoding keeps
    #: this far below ``records_scanned`` (one parse per POI per region).
    cells_decoded: int = 0
    #: True when one or more regions never answered (within the fan-out's
    #: retry/hedge budget) and the ranking ran on the surviving partials.
    degraded: bool = False
    #: Region ids whose visits are missing from ``pois``.
    missing_regions: Tuple = ()
    #: Fraction of invoked regions that contributed (1.0 when exact).
    coverage: float = 1.0
    #: Per-friend region scan cache hits/misses summed across the
    #: fan-out (both 0 when no cache is attached).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Trace id of the query's span tree (None when tracing is off);
    #: also rides along as the latency histogram's exemplar.
    trace_id: Optional[int] = None
    #: Fan-out recovery work spent answering this query.
    retries: int = 0
    hedges: int = 0
    #: Threshold-algorithm accounting (0 outside top-k mode): per-POI
    #: aggregates that passed the region filter but the merger proved
    #: irrelevant and never emitted, shipped or merged, and regions
    #: whose emission it short-circuited.
    #: A pruned-early region is complete *by proof* — it never appears
    #: in ``missing_regions`` and does not lower ``coverage``.
    cells_avoided: int = 0
    regions_pruned_early: int = 0


@dataclass(frozen=True)
class _VisitScanRequest:
    """What the coprocessor endpoint receives, per query.  The endpoint
    answers with a :class:`~repro.core.modules.topk.TopKPartialStream`;
    ``topk_batch`` says how the merger reads it."""

    friend_ids: Tuple
    bbox: Optional[Tuple]  # (min_lat, min_lon, max_lat, max_lon)
    keywords: Tuple
    since: Optional[int]
    until: Optional[int]
    #: A brownout's emission cap: a positive limit keeps each region's
    #: first that many passing POIs in ``(-key, poi_id)`` order, trading
    #: exactness for transfer size.  0 ships every one.
    per_region_limit: int = 0
    #: The merger's k: it ranks, keeps and decodes this many winners.
    top_k: int = 10
    #: The local sort key: visit count (True) or mean grade.
    hotness: bool = False
    #: Threshold-algorithm sorted-access batch per merger round; 0 makes
    #: the merger drain every stream instead (an exhaustive request, or
    #: a capped stream, which has no sound bound).
    topk_batch: int = 16


class VisitScanCoprocessor(Coprocessor):
    """Region-local personalized aggregation.

    Per the paper: "each coprocessor operates into a specific HBase
    region, eliminates the visits that do not satisfy the user defined
    criteria, aggregates multiple visits referring to the same POI and
    sorts the candidate POIs according to the aggregated scores."

    The endpoint aggregates straight from row keys and raw payloads —
    no :class:`VisitStruct` is built per cell and the scan parses
    nothing: the POI id comes from fixed row-key offsets and the grade
    from the payload's fixed header.  Because the replicated POI
    attributes (name/lat/lon/keywords) are per-POI constants, one raw
    payload per POI is enough to decode them later, and a decoded row
    serves every region and query after it: the scan, the filter and
    the merger read and write the cluster's one POI attribute table
    (``RegionScanCache.poi_attrs``, as the invocation's generation
    carries it; a table of its own when an invocation runs without the
    cache) — the scan records the payloads the table lacks, the filter
    decodes the rows of the POIs its keyword postings keep (every
    aggregated POI when it has no keyword), the merger the k
    winners'.
    ``cells_decoded`` in the context counters (payload tail parses)
    makes the saving observable.
    """

    name = "visit-scan"

    def run(self, context: CoprocessorContext, request: _VisitScanRequest):
        """Fold every owned friend's partial (see :meth:`_fold_friends`),
        keep the POIs that pass the query's bbox/keyword predicate (see
        :meth:`select`) — under a brownout's ``per_region_limit``, only
        the first that many in ``(-key, poi_id)`` order — and hand their
        exact aggregates to the merger as a score-sorted
        :class:`TopKPartialStream`: shipping and the winners' decode are
        deferred to the merge."""
        aggregates, poi_attrs, cells_scanned = self._fold_friends(
            context, request
        )
        bbox = (
            BoundingBox.from_tuple(request.bbox)
            if request.bbox is not None
            else None
        )
        wanted = set(request.keywords)
        with context.trace("region.sort") as sort_stage:
            if bbox is not None or wanted:
                # An unfiltered stream needs no row: the merger fetches
                # the winners' only.
                aggregates, _rows, cells_decoded = self.select(
                    aggregates, poi_attrs, bbox, wanted
                )
                sort_stage.tag("cells_decoded", cells_decoded)
                context.count("cells_decoded", cells_decoded)
            sort_stage.tag("passing", len(aggregates))
            if request.per_region_limit:
                # The cap keeps the POIs the request ranks highest, in
                # the order the stream then emits them.
                aggregates = aggregates.only([
                    poi_id for _negkey, poi_id in nsmallest(
                        request.per_region_limit,
                        zip(
                            negated_keys(aggregates, request.hotness),
                            aggregates.counts,
                        ),
                    )
                ])
            stream = TopKPartialStream(
                region_id=context.region_id,
                aggregates=aggregates,
                poi_attrs=poi_attrs,
                top_k=request.top_k,
                hotness=request.hotness,
                batch=request.topk_batch,
                span=context.span,
                cells_scanned=cells_scanned,
                deadline_token=context.cancellation,
            )
            sort_stage.tag("partials", stream.size)
        return stream

    @staticmethod
    def select(
        aggregates: PartialAggregates,
        poi_attrs: POIAttrTable,
        bbox: Optional[BoundingBox],
        wanted: set,
    ) -> Tuple[PartialAggregates, List[tuple], int]:
        """The region filter: the aggregates of the POIs that pass the
        query's bbox/keyword predicate, in their first-encounter order.

        Returns ``(aggregates, rows, cells_decoded)``.  A POI whose row
        the table lacks is decoded here, once, from the table's payload
        and added to it.  The keyword test is membership in the table's
        postings (``by_keyword``); only the survivors' rows are
        gathered, the bbox is tested on them alone, and ``rows`` are
        the passing POIs'.  Rows are per-POI constants (DESIGN.md §7),
        so a POI passes or fails in every region alike.  The table is
        never emptied (a clear binds a fresh one), so every row found
        or added here is still there for the merger's final fetch."""
        poi_ids = list(aggregates.counts)
        # One full payload parse per POI the table has not seen yet, in
        # any region or query.
        missing = list(filterfalse(poi_attrs.__contains__, poi_ids))
        for poi_id in missing:
            poi_attrs[poi_id] = decode_attrs(poi_attrs.payloads[poi_id])
        if wanted:
            index = poi_attrs.by_keyword
            passing = set().union(*map(index.get, wanted, repeat(())))
            poi_ids = list(filter(passing.__contains__, poi_ids))
        rows = list(map(poi_attrs.get, poi_ids))
        if bbox is not None:
            for column, test, bound in (
                (_LAT, le, bbox.min_lat),
                (_LAT, ge, bbox.max_lat),
                (_LON, le, bbox.min_lon),
                (_LON, ge, bbox.max_lon),
            ):
                poi_ids, rows = _keep(
                    map(test, repeat(bound), map(column, rows)),
                    poi_ids, rows,
                )
        if len(poi_ids) < len(aggregates):
            aggregates = aggregates.only(poi_ids)
        return aggregates, rows, len(missing)

    def _fold_friends(
        self, context: CoprocessorContext, request: _VisitScanRequest
    ) -> Tuple[PartialAggregates, POIAttrTable, int]:
        """The friend-partial core: for each friend the client routed
        here and the request's window — cached partial, else scan,
        aggregate and (if admitted) store — folded in friend order into
        exact unfiltered per-POI aggregates.

        Returns ``(aggregates, poi_attrs, cells_scanned)``:
        ``aggregates`` holds per POI the exact ``grade_sum`` and
        ``count`` in first-encounter order (no per-POI container, so a
        6000-friend fold leaves the garbage collector nothing to
        track), and ``poi_attrs`` is the POI attribute table that holds
        a payload of each of those POIs — the one the generation
        carries, the cache's current one when the lookup opened, or one
        of the invocation's own without a cache.

        The scan always completes and parses nothing: a friend's visits
        arrive as one slice (``scan_cells``), the POI id comes from fixed
        row-key offsets, the grade from the payload's fixed header, and
        the first payload met of a POI the table lacks is recorded
        there for whoever decodes attributes later (the fold itself
        never touches it).  A scanned
        friend is summed in scratch dicts the whole invocation reuses,
        and packed into :class:`FriendPartial` columns only when the
        generation admits a fill — an invocation that is not admitted
        allocates nothing per friend but the slice.  Cached and fresh
        partials fold in
        the same order, POI by POI in first-encounter order, so every
        float sum is bit-identical with the cache on, off, cold or warm.
        """
        cache = context.cache
        since, until = request.since, request.until
        owner_of = VisitsRepository.user_of_row
        # Captured before the lookup: a mutation racing with this
        # invocation moves the region's seqid, and the fold looks up
        # again before its next probe.  Each lookup evicts the friends
        # written since the generation was last handed out; ``store``
        # drops the fills of those written since this first one
        # (DESIGN.md §7.1).
        seqid = context.data_seqid
        generation = context.cache_lookup(owner_of)
        if generation is not None:
            entries = generation.entries
            poi_attrs = generation.poi_attrs
        else:
            #: None: nothing to read and not admitted to fill.
            entries = None
            poi_attrs = (
                cache.poi_attrs if cache is not None else POIAttrTable()
            )
        payloads = poi_attrs.payloads
        fills: Dict[Tuple, FriendPartial] = {}
        aggregates = PartialAggregates()
        # ``PartialAggregates.add`` inlined below: this is the hot loop.
        grade_sums = aggregates.grade_sums
        counts = aggregates.counts
        #: One scanned friend's partial, cleared per friend: poi_id ->
        #: grade sum / visit count, both in first-encounter order.
        sums: Dict[int, float] = {}
        visits: Dict[int, int] = {}
        cache_hits = 0
        cache_misses = 0
        cells_scanned = 0
        time_range_keys = VisitsRepository.time_range_keys
        decode_grade = VisitsRepository.decode_grade
        scan_cells = context.scan_cells
        from_bytes = int.from_bytes
        poi_field = POI_FIELD
        #: Cooperative-cancellation probe cadence; None on the default
        #: path keeps the loop token-free.
        token = context.cancellation
        check_every = token.check_every if token is not None else 0

        stage = context.trace("region.aggregate")
        for friend_id in request.friend_ids:
            cached = None
            if entries is not None:
                if context.data_seqid != seqid:
                    # Catch up: the same entries, less the written
                    # friends' (None after a structural event).
                    seqid = context.data_seqid
                    if context.cache_lookup(owner_of) is None:
                        entries = None
                if entries is not None:
                    cached = entries.get((friend_id, since, until))
            if cached is not None:
                cache_hits += 1
                for poi_id, grade_sum, count in zip(
                    cached.poi_ids, cached.grade_sums, cached.counts
                ):
                    if poi_id in counts:
                        grade_sums[poi_id] += grade_sum
                        counts[poi_id] += count
                    else:
                        grade_sums[poi_id] = grade_sum
                        counts[poi_id] = count
                continue
            cache_misses += 1
            start, stop = time_range_keys(friend_id, since, until)
            cells = scan_cells(FAMILY, start, stop)
            if token is not None:
                # Probe at the running counts a cell-at-a-time loop
                # would: deadline-blown or abandoned queries stop here
                # instead of finishing work nobody can use.  Account
                # the cells up to the probe before raising so the cost
                # model still charges them.
                for probe_at in range(
                    cells_scanned + check_every - cells_scanned % check_every,
                    cells_scanned + len(cells) + 1,
                    check_every,
                ):
                    try:
                        token.checkpoint(probe_at)
                    except Exception:
                        context.add_scanned(probe_at)
                        raise
            cells_scanned += len(cells)
            sums.clear()
            visits.clear()
            for cell in cells:
                # Cheap key-only decode: poi id at fixed row offsets.
                poi_id = from_bytes(cell.row[poi_field], "big")
                if poi_id in sums:
                    sums[poi_id] += decode_grade(cell.value)
                    visits[poi_id] += 1
                else:
                    value = cell.value
                    if poi_id not in payloads:
                        payloads[poi_id] = value
                    sums[poi_id] = decode_grade(value)
                    visits[poi_id] = 1
            if entries is not None:
                # From lists: ``array`` sizes a list's copy exactly and
                # grows anything else by appends, leaving slack in every
                # entry the warm fold then has to pull in.
                fills[(friend_id, since, until)] = FriendPartial(
                    list(sums), list(sums.values()), list(visits.values())
                )
            for poi_id, grade_sum in sums.items():
                if poi_id in counts:
                    grade_sums[poi_id] += grade_sum
                    counts[poi_id] += visits[poi_id]
                else:
                    grade_sums[poi_id] = grade_sum
                    counts[poi_id] = visits[poi_id]

        stage.tag("cells_scanned", cells_scanned)
        stage.tag("pois", len(aggregates))
        stage.finish()
        context.add_scanned(cells_scanned)
        if cache is not None:
            if fills and entries is not None:
                context.cache_store(generation, fills, owner_of)
            cache.record(cache_hits, cache_misses)
            # Marker span: per-region cache effectiveness, visible as a
            # ``cache.lookup`` child in the query's fan-out trace.
            context.trace(
                "cache.lookup",
                friends=len(request.friend_ids),
                hits=cache_hits,
                misses=cache_misses,
            ).finish()
            context.count("cache_hits", cache_hits)
            context.count("cache_misses", cache_misses)
        return aggregates, poi_attrs, cells_scanned

    # merge() default (list concatenation) passes the merger's one
    # ranked list through as the call result.

    def stream_merge(self, streams, deadline_token=None):
        """The one cross-region merge (:class:`TopKMerger`, draining or
        pruning); returns the ``(ranked_rows, stats)`` pair the fan-out
        engine folds into the call result.  Each of the at most k rows
        is a winner's *global* ``(poi_id, grade_sum, count, name, lat,
        lon)``, in rank order."""
        first = streams[0]
        merger = TopKMerger(
            k=first.top_k,
            hotness=first.hotness,
            deadline_token=deadline_token,
        )
        return merger.merge(streams)

    def validate_partial(self, partial) -> bool:
        """A region partial is an unstarted :class:`TopKPartialStream`
        over aggregate columns of one length; anything else — including
        the injector's corruption marker — is rejected and the
        invocation goes through retry/hedge like a raised error."""
        if not isinstance(partial, TopKPartialStream):
            return False
        aggregates = partial.aggregates
        return (
            len(aggregates.grade_sums) == len(aggregates.counts)
            == partial.size
            and partial.cursor == partial.emitted == 0
            and not partial.items
        )


class QueryAnsweringModule:
    """Routes queries to the SQL path or the coprocessor path.

    ``tracer`` (see :mod:`repro.core.tracing`) makes every personalized
    query emit a span tree — ``query.personalized`` → ``route`` →
    ``fanout`` (with per-region ``region.scan`` children and the
    cross-region ``merge``) → ``rank`` — retrievable through the
    tracer's ring buffer and the ``admin_traces`` endpoint.  The default
    is the shared disabled tracer: spans only observe, so results are
    identical either way.
    """

    def __init__(
        self,
        poi_repository: POIRepository,
        visits_repository: VisitsRepository,
        tracer: Optional[Tracer] = None,
        metrics: Optional[object] = None,
        hot_poi_cache: Optional[HotPOICache] = None,
        event_log: Optional[object] = None,
        admission: Optional[AdmissionController] = None,
        topk_config: Optional[TopKConfig] = None,
    ) -> None:
        self.pois = poi_repository
        self.visits = visits_repository
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        #: Optional wide-event log: one canonical event per personalized
        #: query, carrying the full cost account and the trace id.
        self.event_log = event_log
        #: Epoch-stamped cache over non-personalized answers
        #: (invalidated by HotIn refreshes and POI writes); the default
        #: is a private one.
        self.hot_poi_cache = hot_poi_cache or HotPOICache()
        #: Admission controller (``repro.core.admission``), consulted
        #: for brownout query shaping (stale cache serves, shrunk
        #: per-region partials, capped k).  The default is a private,
        #: never-ticked one, which leaves every query as its caller
        #: shaped it.
        self.admission = admission or AdmissionController(AdmissionConfig())
        #: The merger prunes with the threshold algorithm
        #: (:mod:`repro.core.modules.topk`) in ``batch_size`` rounds.
        self.topk = topk_config or TopKConfig()
        self._coprocessor = VisitScanCoprocessor()

    # -------------------------------------------------------- public API

    def search(self, query: SearchQuery) -> SearchResult:
        """Answer one query."""
        if query.personalized:
            return self.search_personalized_batch([query])[0]
        with self.tracer.span(
            "query.non_personalized", keywords=len(query.keywords)
        ):
            result = self._search_sql(query)
        if self.metrics is not None:
            self.metrics.increment("queries.non_personalized")
        return result

    def search_personalized_batch(
        self, queries: Sequence[SearchQuery]
    ) -> List[SearchResult]:
        """Answer several personalized queries *concurrently*.

        All queries' coprocessor tasks share the simulated cluster, so
        their latencies include contention — Figure 3's setup.

        Route-then-stream: each query's friend list is partitioned per
        region client-side, every region receives only its own friends,
        and regions owning no friends are never invoked.
        """
        tracer = self.tracer
        #: Brownout query shaping (None outside a brownout): shrink each
        #: region's shipped partial and cap k, trading exactness for
        #: survival — results are flagged ``degraded``.
        shape = self.admission.query_shape()
        per_region_limit = shape["per_region_limit"] if shape else 0
        routed_requests = []
        route_items = []
        roots = []
        fanouts = []
        for query in queries:
            if not query.personalized:
                raise QueryError("batch path requires personalized queries")
            root = tracer.span(
                "query.personalized",
                friends=len(query.friend_ids),
                sort_by=query.sort_by,
                limit=query.limit,
            )
            with tracer.span("route", parent=root) as route_span:
                routed = self._route_query(
                    query, per_region_limit=per_region_limit
                )
                route_span.tag("regions_used", len(routed))
            routed_requests.append(routed)
            route_items.append(len(query.friend_ids))
            roots.append(root)
            # The fan-out span stays open across the batch's shared
            # pass below; the HBase client parents every region.scan
            # span under it and adds straggler attribution.
            fanouts.append(tracer.span("fanout", parent=root))
        deadlines = [query.deadline_ms for query in queries]
        try:
            calls = self.visits.cluster.coprocessor_exec_routed(
                self.visits.table.name,
                self._coprocessor,
                routed_requests,
                route_items=route_items,
                tracer=tracer,
                trace_parents=fanouts,
                deadlines=(
                    deadlines
                    if any(d is not None for d in deadlines)
                    else None
                ),
            )
        except Exception as exc:
            # An aborted query (strict deadline, or anything else) is
            # the trace an operator most wants: publish it.
            error = type(exc).__name__
            for root, fanout in zip(roots, fanouts):
                fanout.tag("error", error).finish()
                root.tag("error", error).finish()
            raise
        results = []
        for query, call, root, fanout in zip(queries, calls, roots, fanouts):
            fanout.finish()
            with tracer.span("rank", parent=root) as rank_span:
                result = self._rank(
                    query, call, max_k=shape["max_k"] if shape else None
                )
                rank_span.tag("returned", len(result.pois))
            if shape is not None:
                # Browned-out answers are honest about being shaped:
                # same flag partial-coverage answers carry.
                result.degraded = True
                if self.metrics is not None:
                    self.metrics.increment("admission.browned_out")
            root.tag("latency_ms", call.latency_ms)
            root.tag("records_scanned", call.records_scanned)
            root.tag("regions_used", len(call.per_region_records))
            root.tag("regions_pruned", call.regions_pruned)
            if call.degraded:
                root.tag("degraded", True)
                root.tag("missing_regions", list(call.missing_regions))
                root.tag("coverage", call.coverage)
                warnings.warn(
                    DegradedResultWarning(
                        "personalized query answered from partial results:"
                        " %d region(s) missing, coverage %.2f"
                        % (len(call.missing_regions), call.coverage)
                    ),
                    stacklevel=2,
                )
            root.finish()
            result.trace_id = root.trace_id
            result.retries = call.retries
            result.hedges = call.hedges
            self._emit_query_event(query, result)
            self._record_personalized(result)
            results.append(result)
        return results

    def _record_personalized(self, result: SearchResult) -> None:
        """One answered personalized query into the metrics registry:
        ``metrics.snapshot()`` then exposes the Figure-2-style latency
        distribution and the per-query cost counters of live traffic."""
        metrics = self.metrics
        if metrics is None:
            return
        metrics.increment("queries.personalized")
        # The trace id rides along as an exemplar so a bad percentile in
        # the histogram links straight to the span tree that caused it.
        exemplar = result.trace_id
        metrics.record_latency(
            "query.personalized", result.latency_ms, exemplar=exemplar
        )
        # Labeled series: latency distribution by fan-out width, so an
        # operator can see whether wide queries drive the tail.
        metrics.record_latency(
            "query.personalized",
            result.latency_ms,
            labels={"regions": result.regions_used},
            exemplar=exemplar,
        )
        metrics.increment("records.scanned", result.records_scanned)
        # Query-path profiling counters (route-then-stream pipeline):
        # cells merged = records the region scanners emitted; cells
        # decoded = payloads actually JSON-parsed (lazy decoding);
        # regions pruned = fan-out avoided by friend->region routing.
        metrics.increment("cells.merged", result.records_scanned)
        metrics.increment("cells.decoded", result.cells_decoded)
        metrics.increment("regions.pruned", result.regions_pruned)
        metrics.increment("regions.used", result.regions_used)
        # Scan-cache effectiveness, aggregated per query rather than per
        # lookup (the per-friend loop is far too hot to emit from).
        if result.cache_hits or result.cache_misses:
            metrics.increment(
                "cache.hits", result.cache_hits, labels={"cache": "scan"}
            )
            metrics.increment(
                "cache.misses", result.cache_misses, labels={"cache": "scan"}
            )
        # Threshold-algorithm early termination (0 on a drained request):
        # aggregates proven irrelevant before any decode/ship/merge, and
        # regions whose emission the merger short-circuited.
        if result.cells_avoided:
            metrics.increment("cells.avoided", result.cells_avoided)
        if result.regions_pruned_early:
            metrics.increment(
                "regions.pruned_early", result.regions_pruned_early
            )
        if result.degraded:
            # Partial answers are still answers, but an operator must be
            # able to alert on how often coverage dropped below 1.0.
            metrics.increment("queries.degraded")
            metrics.increment("regions.missing", len(result.missing_regions))

    def _emit_query_event(self, query: SearchQuery, result: SearchResult) -> None:
        """One wide event per personalized query — the canonical log line
        carrying the full cost account, tail-sampled by the event log."""
        log = self.event_log
        if log is None:
            return
        slow_threshold = getattr(self.tracer, "slow_threshold_ms", None)
        slow = (
            slow_threshold is not None
            and result.latency_ms >= slow_threshold
        )
        log.emit(
            {
                "type": "query.personalized",
                "trace_id": result.trace_id,
                "latency_ms": result.latency_ms,
                "slow": slow,
                "degraded": result.degraded,
                "friends": len(query.friend_ids),
                "sort_by": query.sort_by,
                "limit": query.limit,
                "returned": len(result.pois),
                "records_scanned": result.records_scanned,
                "cells_decoded": result.cells_decoded,
                "regions_used": result.regions_used,
                "regions_pruned": result.regions_pruned,
                "missing_regions": list(result.missing_regions),
                "coverage": result.coverage,
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "retries": result.retries,
                "hedges": result.hedges,
                "cells_avoided": result.cells_avoided,
                "regions_pruned_early": result.regions_pruned_early,
            }
        )

    def _route_query(
        self, query: SearchQuery, per_region_limit: int = 0
    ) -> Dict:
        """Per-region scan requests for one personalized query: every
        region gets exactly the friends whose salted key ranges it owns."""
        routed = self.visits.route_friends(
            query.friend_ids, query.since, query.until
        )
        bbox = query.bbox.as_tuple() if query.bbox else None
        # The threshold algorithm prunes only on the exact path: a
        # brownout's capped streams have no sound bound, so they drain.
        batch = 0 if per_region_limit else self.topk.batch_size
        return {
            region: _VisitScanRequest(
                friend_ids=tuple(friends),
                bbox=bbox,
                keywords=query.keywords,
                since=query.since,
                until=query.until,
                per_region_limit=per_region_limit,
                top_k=query.limit,
                hotness=query.sort_by == SORT_HOTNESS,
                topk_batch=batch,
            )
            for region, friends in routed.items()
        }

    def explain_personalized(self, query: SearchQuery) -> Dict:
        """EXPLAIN for the coprocessor path: per-region work breakdown.

        Executes the query through the routed fan-out and returns, per
        invoked region, the records scanned, partial results shipped and
        the node serving it, plus the simulated end-to-end latency and
        the routing/decoding counters (``regions_pruned``,
        ``cells_merged``, ``cells_decoded``) — the profile an operator
        needs to spot hot regions, bad salt distribution, or a filter
        that decodes more payloads than it keeps.  The ``topk`` block
        is the merger's account; its ``cells_avoided`` counts the
        aggregates that passed the region filter and were never emitted
        (a POI the filter dropped is neither avoided nor shipped).
        """
        if not query.personalized:
            raise QueryError("explain_personalized needs a personalized query")
        cluster = self.visits.cluster
        call = cluster.coprocessor_exec_routed(
            self.visits.table.name,
            self._coprocessor,
            [self._route_query(query)],
            route_items=[len(query.friend_ids)],
        )[0]
        placement = cluster.simulation.region_placement
        regions = [
            {
                "region_id": region_id,
                "node": placement.get(region_id),
                "records_scanned": records,
                "results_returned": call.per_region_results.get(region_id, 0),
            }
            for region_id, records in sorted(call.per_region_records.items())
        ]
        records = [r["records_scanned"] for r in regions]
        return {
            "friends": len(query.friend_ids),
            "regions": regions,
            "regions_pruned": call.regions_pruned,
            "latency_ms": call.latency_ms,
            "records_total": sum(records),
            "records_max_region": max(records) if records else 0,
            "cells_merged": sum(records),
            "cells_decoded": call.counters.get("cells_decoded", 0),
            "skew": (
                max(records) / (sum(records) / len(records))
                if records and sum(records) else 0.0
            ),
            "degraded": call.degraded,
            "missing_regions": list(call.missing_regions),
            "coverage": call.coverage,
            "retries": call.retries,
            "hedges": call.hedges,
            "topk": {
                "enabled": call.counters.get("topk.rounds", 0) > 0,
                "rounds": call.counters.get("topk.rounds", 0),
                "probes": call.counters.get("topk.probes", 0),
                "candidates": call.counters.get("topk.candidates", 0),
                "cells_avoided": call.counters.get("topk.cells_avoided", 0),
                "pruned_regions": call.counters.get(
                    "topk.pruned_regions", 0
                ),
            },
        }

    # ---------------------------------------------------------- internals

    def _rank(
        self, query: SearchQuery, call, max_k: Optional[int] = None
    ) -> SearchResult:
        """Web-tier rank: the merger's rows, already ranked by
        ``(-score, -visit_count, poi_id)``, as scored POIs.

        ``max_k`` is the brownout cap on result size: under overload the
        admission controller shrinks k so the response ships less state,
        and the result is flagged degraded by the caller."""
        limit = query.limit if max_k is None else min(query.limit, max_k)
        interest = query.sort_by == SORT_INTEREST
        return SearchResult(
            pois=[
                ScoredPOI(
                    poi_id=poi_id,
                    name=name,
                    lat=lat,
                    lon=lon,
                    # Mean friend opinion, or crowd concentration.
                    score=grade_sum / count if interest else float(count),
                    visit_count=count,
                )
                for poi_id, grade_sum, count, name, lat, lon
                in call.result[:limit]
            ],
            personalized=True,
            latency_ms=call.latency_ms,
            records_scanned=call.records_scanned,
            regions_used=len(call.per_region_records),
            regions_pruned=call.regions_pruned,
            cells_decoded=call.counters.get("cells_decoded", 0),
            degraded=call.degraded,
            missing_regions=tuple(call.missing_regions),
            coverage=call.coverage,
            cache_hits=call.counters.get("cache_hits", 0),
            cache_misses=call.counters.get("cache_misses", 0),
            cells_avoided=call.counters.get("topk.cells_avoided", 0),
            regions_pruned_early=call.counters.get(
                "topk.pruned_regions", 0
            ),
        )

    def _search_sql(self, query: SearchQuery) -> SearchResult:
        cache = self.hot_poi_cache
        key = (
            query.bbox.as_tuple() if query.bbox else None,
            query.keywords,
            query.sort_by,
            query.limit,
        )
        # Brownout level 1: serve whatever the cache holds, even an
        # epoch- or version-stale entry, and flag the result degraded.
        # Freshness is the first thing traded away under overload — a
        # slightly old hot-POI list beats a rejection.
        if self.admission.stale_ok():
            stale = cache.get_stale(key)
            if stale is not None:
                if self.metrics is not None:
                    self.metrics.increment("admission.stale_served")
                return SearchResult(
                    pois=list(stale), personalized=False, degraded=True
                )
        # Read the stamp *before* running the select: a write landing in
        # between makes the stored stamp stale, never the other way
        # around.
        version = self.pois.version
        rows = cache.get(key, version)
        if rows is None:
            rows = tuple(self._sql_rows(query))
            cache.store(key, version, rows)
        # Fresh result object per call; the row tuples are shared but
        # immutable (ScoredPOI is frozen).
        return SearchResult(pois=list(rows), personalized=False)

    def _sql_rows(self, query: SearchQuery) -> List[ScoredPOI]:
        pois = self.pois.search(
            bbox=query.bbox,
            keywords=query.keywords or None,
            sort_by=query.sort_by,
            limit=query.limit,
        )
        return [
            ScoredPOI(
                poi_id=p.poi_id,
                name=p.name,
                lat=p.lat,
                lon=p.lon,
                score=p.interest if query.sort_by == SORT_INTEREST else p.hotness,
                visit_count=0,
            )
            for p in pois
        ]

    # ------------------------------------------------- ablation baseline

    def search_personalized_client_side(self, query: SearchQuery) -> SearchResult:
        """The no-coprocessor baseline: the web server pulls every
        friend's visits over the (simulated) wire and aggregates locally.

        Scans the same data but all records cross the network and the
        aggregation runs on one machine — the strategy the coprocessor
        design replaces.  Used by ``bench_ablation_coprocessors``.
        """
        if not query.personalized:
            raise QueryError("client-side path requires a personalized query")
        merged: Dict[int, list] = {}
        records = 0
        normalized = self.visits.schema_mode == SCHEMA_NORMALIZED
        for friend_id in query.friend_ids:
            for visit in self.visits.visits_of_user(
                friend_id, query.since, query.until
            ):
                records += 1
                if normalized:
                    poi = self.pois.get(visit.poi_id)
                    if poi is None:
                        continue
                    lat, lon, name = poi.lat, poi.lon, poi.name
                    keywords = poi.keywords
                else:
                    lat, lon, name = visit.lat, visit.lon, visit.poi_name
                    keywords = visit.keywords
                if query.bbox is not None and not query.bbox.contains_coords(
                    lat, lon
                ):
                    continue
                if query.keywords and not (
                    set(query.keywords) & {k.lower() for k in keywords}
                ):
                    continue
                entry = merged.get(visit.poi_id)
                if entry is None:
                    merged[visit.poi_id] = [visit.grade, 1, name, lat, lon]
                else:
                    entry[0] += visit.grade
                    entry[1] += 1

        cm = self.visits.cluster.simulation.cost_model
        # Single-core aggregation + every record over the wire.
        latency_s = (
            cm.rpc_latency_s * 2
            + records * cm.cost_per_record_s
            + records * cm.merge_cost_per_item_s * 4
        )
        scored = []
        for poi_id, (grade_sum, count, name, lat, lon) in merged.items():
            score = (
                grade_sum / count
                if query.sort_by == SORT_INTEREST
                else float(count)
            )
            scored.append(
                ScoredPOI(
                    poi_id=poi_id,
                    name=name,
                    lat=lat,
                    lon=lon,
                    score=score,
                    visit_count=count,
                )
            )
        scored.sort(key=lambda p: (-p.score, -p.visit_count, p.poi_id))
        return SearchResult(
            pois=scored[: query.limit],
            personalized=True,
            latency_ms=latency_s * 1e3,
            records_scanned=records,
            regions_used=0,
        )
