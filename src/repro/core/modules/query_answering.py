"""Query Answering Module — the paper's core query path (Section 2.2).

Non-personalized queries (no friend list) become SQL selects against the
POI repository.  Personalized queries fan out to HBase coprocessors:
each region-local endpoint scans the visits of the friends whose salted
keys it owns, filters by the user's criteria, aggregates per POI, sorts,
and returns its partial top list; the web-server tier merges partials
into the final answer — exactly the mechanism behind Figures 2 and 3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ...config import TopKConfig
from ...errors import DegradedResultWarning, QueryError
from ...geo import BoundingBox
from ...hbase import Coprocessor, CoprocessorContext
from ...hbase.cache import FriendPartial
from ..repositories.poi import POIRepository
from ..caching import HotPOICache, SingleFlight
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
    passes_filter,
)

SORT_INTEREST = "interest"
SORT_HOTNESS = "hotness"


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
    #: aggregates the merger proved irrelevant and never decoded,
    #: shipped or merged, and regions whose emission it short-circuited.
    #: A pruned-early region is complete *by proof* — it never appears
    #: in ``missing_regions`` and does not lower ``coverage``.
    cells_avoided: int = 0
    regions_pruned_early: int = 0


@dataclass(frozen=True)
class _VisitScanRequest:
    """What the coprocessor endpoint receives, per query.

    ``per_region_limit`` of 0 ships every per-POI aggregate the region
    produced (the default: per-POI aggregates are already tiny compared
    with raw visits, and shipping them all keeps global top-k *exact*
    under mean-based ranking).  A positive limit truncates the sorted
    partial list, trading exactness for transfer size.
    """

    friend_ids: Tuple
    bbox: Optional[Tuple]  # (min_lat, min_lon, max_lat, max_lon)
    keywords: Tuple
    since: Optional[int]
    until: Optional[int]
    per_region_limit: int = 0
    #: True when the client already routed ``friend_ids`` to this
    #: region, so the endpoint can skip per-friend ownership probing.
    routed: bool = False
    #: Non-zero engages threshold-algorithm streaming mode: the endpoint
    #: returns a :class:`~repro.core.modules.topk.TopKPartialStream`
    #: (score-sorted incremental emission with a monotone upper bound)
    #: instead of a finished partial list.  Mutually exclusive with
    #: ``per_region_limit`` — a truncated partial has no sound bound.
    top_k: int = 0
    #: Streaming mode's local sort key: visit count (True) or mean grade.
    hotness: bool = False
    #: Sorted-access batch size per merger round in streaming mode.
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
    payload reference per POI is enough to decode them later, and a
    decoded row serves every region and query after it: both modes read
    and write the cluster's one POI attribute table
    (``RegionScanCache.poi_attrs``; a dict of its own when an invocation
    runs without the cache) — for every aggregated POI in exhaustive
    mode, for filter evaluation and the k winners in streaming mode.
    ``cells_decoded`` in the context counters (payload tail parses)
    makes the saving observable.
    """

    name = "visit-scan"

    def run(self, context: CoprocessorContext, request: _VisitScanRequest):
        """Fold every owned friend's partial (see :meth:`_fold_friends`),
        then either hand the exact aggregates to the merger as a
        score-sorted :class:`TopKPartialStream` (streaming mode: decode,
        filter and shipping are deferred and cancellable) or decode,
        filter and ship all of them."""
        aggregates, cells_scanned = self._fold_friends(context, request)
        cache = context.cache
        poi_attrs = cache.poi_attrs if cache is not None else {}
        bbox = (
            BoundingBox.from_tuple(request.bbox)
            if request.bbox is not None
            else None
        )
        wanted = set(request.keywords)
        if request.top_k > 0 and request.per_region_limit == 0:
            with context.trace("region.sort") as sort_stage:
                stream = TopKPartialStream(
                    region_id=context.region_id,
                    aggregates=aggregates,
                    poi_attrs=poi_attrs,
                    top_k=request.top_k,
                    hotness=request.hotness,
                    batch=request.topk_batch,
                    bbox=bbox,
                    wanted=wanted,
                    span=context.span,
                    cells_scanned=cells_scanned,
                    deadline_token=context.cancellation,
                )
                sort_stage.tag("partials", len(stream.items))
            return stream
        filtered = bbox is not None or bool(wanted)
        cells_decoded = 0
        with context.trace("region.sort") as sort_stage:
            partial = []
            for poi_id, grade_sum, count in aggregates.rows():
                attrs = poi_attrs.get(poi_id)
                if attrs is None:
                    # One full payload parse per POI the table has not
                    # seen yet, in any region or query.
                    attrs = poi_attrs[poi_id] = decode_attrs(
                        aggregates.raw(poi_id)
                    )
                    cells_decoded += 1
                if filtered and not passes_filter(attrs, bbox, wanted):
                    continue
                name, lat, lon, _keywords = attrs
                partial.append((poi_id, grade_sum, count, name, lat, lon))
            # Region-local sort by aggregated grade; optionally truncate.
            partial.sort(key=itemgetter(1), reverse=True)
            sort_stage.tag("cells_decoded", cells_decoded)
            sort_stage.tag("partials", len(partial))
        context.count("cells_decoded", cells_decoded)
        if request.per_region_limit > 0:
            return partial[: request.per_region_limit]
        return partial

    def _fold_friends(
        self, context: CoprocessorContext, request: _VisitScanRequest
    ) -> Tuple[PartialAggregates, int]:
        """The friend-partial core both modes share: for each owned
        friend and the request's window — cached partial, else scan,
        aggregate and (if admitted) store — folded in friend order into
        exact unfiltered per-POI aggregates.

        Returns ``(aggregates, cells_scanned)``: ``aggregates`` holds
        per POI the exact ``grade_sum`` and ``count`` in first-encounter
        order (no per-POI container, so a 6000-friend fold leaves the
        garbage collector nothing to track) and finds a POI's raw
        payload on demand.

        The scan always completes and parses nothing: a friend's visits
        arrive as one slice (``scan_cells``), the POI id comes from fixed
        row-key offsets, the grade from the payload's fixed header, and
        one raw payload reference per POI is kept for whoever decodes
        attributes later (the fold itself never touches it).  A scanned
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
        # Captured before the lookup: a mutation racing with this
        # invocation moves the region's seqid, which ends cache reads
        # and fills.  The lookup itself evicts the friends written since
        # the generation was last handed out (DESIGN.md §7.1).
        seqid = context.data_seqid
        generation = context.cache_lookup(VisitsRepository.user_of_row)
        #: None: nothing to read and not admitted to fill.
        entries = generation.entries if generation is not None else None
        fills: Dict[Tuple, FriendPartial] = {}
        aggregates = PartialAggregates()
        # ``PartialAggregates.add`` inlined below: this is the hot loop.
        grade_sums = aggregates.grade_sums
        counts = aggregates.counts
        scanned_raws = aggregates.scanned_raws
        add_source = aggregates.sources.append
        #: One scanned friend's partial, cleared per friend: poi_id ->
        #: grade sum / visit count / first raw payload, all three in
        #: first-encounter order.
        sums: Dict[int, float] = {}
        visits: Dict[int, int] = {}
        first_raws: Dict[int, bytes] = {}
        cache_hits = 0
        cache_misses = 0
        cells_scanned = 0
        time_range_keys = VisitsRepository.time_range_keys
        user_prefix = VisitsRepository.user_prefix
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
            if not request.routed:
                prefix = user_prefix(friend_id)
                if not context.contains_row(prefix + b"\x00"):
                    # Another region owns this friend's salted key range.
                    continue
            cached = None
            if entries is not None:
                if context.data_seqid != seqid:
                    entries = None
                else:
                    cached = entries.get((friend_id, since, until))
            if cached is not None:
                cache_hits += 1
                add_source((cached.poi_ids, cached.raws))
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
            first_raws.clear()
            for cell in cells:
                # Cheap key-only decode: poi id at fixed row offsets.
                poi_id = from_bytes(cell.row[poi_field], "big")
                if poi_id in sums:
                    sums[poi_id] += decode_grade(cell.value)
                    visits[poi_id] += 1
                else:
                    value = first_raws[poi_id] = cell.value
                    sums[poi_id] = decode_grade(value)
                    visits[poi_id] = 1
            if entries is not None:
                if context.data_seqid == seqid:
                    # From lists: ``array`` sizes a list's copy exactly
                    # and grows anything else by appends, leaving slack
                    # in every entry the warm fold then has to pull in.
                    fills[(friend_id, since, until)] = FriendPartial(
                        list(sums), list(sums.values()),
                        list(visits.values()), first_raws.values(),
                    )
                else:
                    entries = None
            for poi_id, grade_sum in sums.items():
                if poi_id in counts:
                    grade_sums[poi_id] += grade_sum
                    counts[poi_id] += visits[poi_id]
                else:
                    grade_sums[poi_id] = grade_sum
                    counts[poi_id] = visits[poi_id]
                    scanned_raws[poi_id] = first_raws[poi_id]

        stage.tag("cells_scanned", cells_scanned)
        stage.tag("pois", len(aggregates))
        stage.finish()
        context.add_scanned(cells_scanned)
        if cache is not None:
            if fills and entries is not None:
                cache.store(context.region_id, generation, fills)
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
        return aggregates, cells_scanned

    # merge() default (list concatenation) is right: the web-server tier
    # does the cross-region aggregation in QueryAnsweringModule.

    def stream_merge(self, streams, deadline_token=None):
        """Threshold-algorithm merge of per-region streams; returns the
        ``(merged_six_tuples, stats)`` pair the fan-out engine folds into
        the call result.  Every candidate POI appears exactly once with
        its *global* aggregate, so the web tier's ``_merge_partials``
        fold is a plain insert pass."""
        first = streams[0]
        merger = TopKMerger(
            k=first.top_k,
            hotness=first.hotness,
            deadline_token=deadline_token,
        )
        return merger.merge(streams)

    def validate_partial(self, partial) -> bool:
        """Region partials are lists of 6-tuples
        ``(poi_id, grade_sum, count, name, lat, lon)`` — or, in
        streaming mode, an unstarted :class:`TopKPartialStream`; anything
        else — including the injector's corruption marker — is rejected
        and the invocation goes through retry/hedge like a raised
        error."""
        if not super().validate_partial(partial):
            return False
        if isinstance(partial, TopKPartialStream):
            return isinstance(partial.items, list) and all(
                isinstance(item, tuple) and len(item) == 4
                for item in partial.items
            )
        return isinstance(partial, list) and all(
            isinstance(item, tuple) and len(item) == 6 for item in partial
        )


class QueryAnsweringModule:
    """Routes queries to the SQL path or the coprocessor path.

    ``tracer`` (see :mod:`repro.core.tracing`) makes every personalized
    query emit a span tree — ``query.personalized`` → ``route`` →
    ``fanout`` (with per-region ``region.scan`` children) → ``merge`` →
    ``rank`` — retrievable through the tracer's ring buffer and the
    ``admin_traces`` endpoint.  The default is the shared disabled
    tracer: spans only observe, so results are identical either way.
    """

    def __init__(
        self,
        poi_repository: POIRepository,
        visits_repository: VisitsRepository,
        tracer: Optional[Tracer] = None,
        metrics: Optional[object] = None,
        hot_poi_cache: Optional[HotPOICache] = None,
        coalesce: bool = False,
        event_log: Optional[object] = None,
        admission: Optional[object] = None,
        topk_config: Optional[TopKConfig] = None,
    ) -> None:
        self.pois = poi_repository
        self.visits = visits_repository
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        #: Optional wide-event log: one canonical event per personalized
        #: query, carrying the full cost account and the trace id.
        self.event_log = event_log
        #: Optional epoch-stamped cache over non-personalized answers
        #: (invalidated by HotIn refreshes and POI writes).
        self.hot_poi_cache = hot_poi_cache
        #: Single-flight table deduplicating identical concurrent
        #: personalized queries; None when coalescing is off.  The
        #: platform enables it from ``config.cache.coalesce``; direct
        #: constructions default to off so single-threaded callers pay
        #: nothing.
        self.single_flight: Optional[SingleFlight] = (
            SingleFlight() if coalesce else None
        )
        #: Optional admission controller (``repro.core.admission``).
        #: Consulted for brownout query shaping (stale cache serves,
        #: shrunk per-region partials, capped k); None — the default —
        #: keeps every query exactly as shaped by its caller.
        self.admission = admission
        #: Optional :class:`~repro.config.TopKConfig`.  When enabled,
        #: personalized queries run the threshold-algorithm streaming
        #: path (:mod:`repro.core.modules.topk`); otherwise the
        #: exhaustive path, the reference its oracle compares against.
        self.topk: Optional[TopKConfig] = topk_config
        self._coprocessor = VisitScanCoprocessor()

    # -------------------------------------------------------- public API

    def search(self, query: SearchQuery) -> SearchResult:
        """Answer one query.

        With coalescing enabled, identical personalized queries that
        arrive while one is in flight share that flight's fan-out and
        result instead of re-executing it (``queries.coalesced`` counts
        the shared calls)."""
        if query.personalized:
            if self.single_flight is None:
                return self.search_personalized_batch([query])[0]
            result, coalesced = self.single_flight.do(
                self._coalesce_key(query),
                lambda: self.search_personalized_batch([query])[0],
            )
            if coalesced:
                # The leader's batch call recorded its own query; a
                # follower shares the result but is a query of its own.
                if self.metrics is not None:
                    self.metrics.increment("queries.coalesced")
                self._record_personalized(result)
            return result
        with self.tracer.span(
            "query.non_personalized", keywords=len(query.keywords)
        ):
            result = self._search_sql(query)
        if self.metrics is not None:
            self.metrics.increment("queries.non_personalized")
        return result

    @staticmethod
    def _coalesce_key(query: SearchQuery) -> Tuple:
        """Full query identity — every field that can change the answer."""
        return (
            query.bbox.as_tuple() if query.bbox else None,
            query.keywords,
            query.friend_ids,
            query.since,
            query.until,
            query.sort_by,
            query.limit,
            query.deadline_ms,
        )

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
        shape = (
            self.admission.query_shape()
            if self.admission is not None
            else None
        )
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
            with tracer.span("merge", parent=root) as merge_span:
                merged = self._merge_partials(query, call)
                merge_span.tag("partials", len(call.result))
                merge_span.tag("pois", len(merged))
            with tracer.span("rank", parent=root) as rank_span:
                result = self._rank(
                    query, merged, call,
                    max_k=shape["max_k"] if shape else None,
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
        # Threshold-algorithm early termination (0 with top-k off):
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
        # Threshold-algorithm streaming engages only on the exact path:
        # a brownout's truncated partials have no sound bound, so a
        # positive per_region_limit falls back to exhaustive shipping.
        topk = self.topk
        streaming = topk is not None and topk.enabled and per_region_limit == 0
        return {
            region: _VisitScanRequest(
                friend_ids=tuple(friends),
                bbox=bbox,
                keywords=query.keywords,
                since=query.since,
                until=query.until,
                per_region_limit=per_region_limit,
                routed=True,
                top_k=query.limit if streaming else 0,
                hotness=query.sort_by == SORT_HOTNESS,
                topk_batch=topk.batch_size if streaming else 16,
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
        that decodes more payloads than it keeps.
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

    def merge_and_rank(self, query: SearchQuery, call) -> SearchResult:
        """Web-tier merge + rank in one step: the path for ablations and
        tests that drive the coprocessor fan-out directly (untraced)."""
        return self._rank(query, self._merge_partials(query, call), call)

    def _merge_partials(self, query: SearchQuery, call) -> Dict[int, list]:
        """Web-tier merge: fold per-region partial aggregates per POI."""
        merged: Dict[int, list] = {}
        for poi_id, grade_sum, count, name, lat, lon in call.result:
            entry = merged.get(poi_id)
            if entry is None:
                merged[poi_id] = [grade_sum, count, name, lat, lon]
            else:
                entry[0] += grade_sum
                entry[1] += count
        return merged

    def _rank(
        self,
        query: SearchQuery,
        merged: Dict[int, list],
        call,
        max_k: Optional[int] = None,
    ) -> SearchResult:
        """Web-tier rank: score merged aggregates and keep the top-k.

        ``max_k`` is the brownout cap on result size: under overload the
        admission controller shrinks k so the response ships less state,
        and the result is flagged degraded by the caller."""
        limit = query.limit if max_k is None else min(query.limit, max_k)
        scored = []
        for poi_id, (grade_sum, count, name, lat, lon) in merged.items():
            if query.sort_by == SORT_INTEREST:
                score = grade_sum / count  # mean friend opinion
            else:
                score = float(count)  # crowd concentration
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
            pois=scored[:limit],
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
        if cache is not None:
            key = (
                query.bbox.as_tuple() if query.bbox else None,
                query.keywords,
                query.sort_by,
                query.limit,
            )
            # Brownout level 1: serve whatever the cache holds, even an
            # epoch- or version-stale entry, and flag the result
            # degraded.  Freshness is the first thing traded away under
            # overload — a slightly old hot-POI list beats a rejection.
            if self.admission is not None and self.admission.stale_ok():
                stale = cache.get_stale(key)
                if stale is not None:
                    if self.metrics is not None:
                        self.metrics.increment("admission.stale_served")
                    return SearchResult(
                        pois=list(stale), personalized=False, degraded=True
                    )
            # Read the stamp *before* running the select: a write
            # landing in between makes the stored stamp stale, never
            # the other way around.
            version = self.pois.version
            rows = cache.get(key, version)
            if rows is None:
                rows = tuple(self._sql_rows(query))
                cache.store(key, version, rows)
            # Fresh result object per call; the row tuples are shared
            # but immutable (ScoredPOI is frozen).
            return SearchResult(pois=list(rows), personalized=False)
        return SearchResult(pois=self._sql_rows(query), personalized=False)

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
