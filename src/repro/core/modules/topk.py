"""Threshold-algorithm top-k early termination for the query fan-out.

Every region answers with one :class:`TopKPartialStream`, and
:class:`TopKMerger` is the one cross-region merge.  A request that does
not prune — an exhaustive one, or a brownout's cap — *drains*: every
stream emits all it holds (sorted access to the end), the merger folds the
triples per POI with no random access, ranks, and decodes the k winners
only.  Otherwise the merge is threshold-algorithm (TA) pruning in the
style of "Efficient Top K Temporal Spatial Keyword Search": regions emit
score-sorted partial batches with a monotone upper bound on anything
they have not emitted yet, and the merger maintains the running k-th
score threshold, short-circuiting region emission the moment its bound
proves nothing else from that region can enter the top k.

Two invariants make the pruned answer *byte-identical* to the
drained one (the differential oracle suite in
``tests/test_topk_oracle.py`` asserts this over hundreds of seeded
workloads, and ``tests/test_topk_properties.py`` proves the bound math
directly):

1. **Scans always complete.**  The per-(region, POI) ``(grade_sum,
   count)`` aggregates are exact before any emission starts: the grade
   of every cell comes from the payload's fixed header
   (``decode_grade``), so phase A needs *zero* payload parses.  What
   early termination avoids is per-POI shipping and merging, never the
   aggregation itself, so no top-k member can ever lose a contribution.
2. **Candidates resolve exactly on discovery.**  In the round a region
   first emits a POI, the merger random-access *probes* every region's
   completed aggregate map (one key-set intersection per region per
   round, no decode) and folds the contributions in ascending region
   order — the same float-addition order as the drained merge.  A
   candidate's global score is final before the round's threshold is
   taken; later emission can only *discover new* candidates, which is
   exactly what the frontier bounds cap.

Attribute decoding — the expensive full JSON parse per POI — is
deferred all the way to the end: emission ships bare ``(poi_id,
grade_sum, count)`` triples, and once the merge terminates the merger
ranks its candidates with the documented key and performs TA's
final random-access fetch for *exactly the k winners*.  Every parse
lands in the cluster's one POI attribute table
(``RegionScanCache.poi_attrs``): a POI is parsed once, not once per
region per query, and an unfiltered k=10 query decodes at most 10
payloads however many thousand distinct POIs the friend set touched.

A query's bbox/keyword filter is not the stream's business: the region
applies it to its aggregates before it builds the stream (the paper's
coprocessor filters, aggregates and sorts inside the region), so a
stream holds only passing POIs and its frontier is the next *passing*
item's key — tighter than the next examined one, and still sound,
because a failing POI cannot enter the answer.  A stream materialises
only what the merger reads: it keeps its aggregates as columns, sorts a
first chunk whose cut-off a heap over the key column finds, and doubles
it as the merger reads on (``tests/test_topk_stream.py`` keeps the
per-item walk it replaced as the reference).

Bound math (proved in the property suite):

- ``hotness`` (score = global visit count): a region sorted by local
  count has frontier ``f_r`` = next unemitted count, so an undiscovered
  POI's global count is at most the sum of the frontiers of the regions
  that have not finished.  Regions are cancelled greedily while the
  running sum of cancelled frontiers stays strictly below the k-th
  candidate's score.
- ``interest`` (score = global mean grade): the global mean is a
  weighted average of per-region local means, hence bounded by their
  maximum.  A region sorted by local mean has frontier ``f_r`` = next
  unemitted local mean, so an undiscovered POI's global mean is at most
  the max frontier; any region whose frontier falls strictly below the
  threshold is individually prunable.  That is exact arithmetic: the
  means are float quotients and the global one divides a float fold of
  ``n`` region sums, so it can land up to ``(n + 1) / 2`` ulps *above*
  the largest local mean (three regions holding the same grades are
  enough).  The comparison therefore scales the frontier up by
  ``1 + (n + 1) * epsilon`` — twice that error — before testing it.

Strict inequality everywhere means a POI tying the k-th score is always
discovered, so ties are resolved by the ranker's documented stable key
``(-score, -visit_count, poi_id)`` identically in both paths.

Cancellation rides the existing :mod:`repro.hbase.cancellation`
plumbing: each stream carries its own :class:`CancellationToken` that
the merger trips with reason ``topk_proof``; the per-query deadline
token (when armed) is checkpointed during emission too, so a deadline
abort (degraded answer, region listed missing) is distinguishable in
traces from a proof abort (complete by proof, coverage untouched).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from itertools import compress, repeat
from operator import and_, ge, itemgetter, lt, neg, truediv
from sys import float_info, intern
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...errors import QueryCancelled
from ...hbase.cancellation import (
    CancellationToken,
    REASON_DEADLINE,
    REASON_TOPK_PROOF,
)
from ...hbase.coprocessor import StreamingPartial
from ..repositories.visits import VisitsRepository


def decode_attrs(raw: bytes) -> tuple:
    """The ``(name, lat, lon, lower-cased keyword set)`` attribute row
    of one raw visit payload — the JSON parse of its tail that both
    modes defer and keep in the POI attribute table (keywords interned:
    few distinct)."""
    payload = VisitsRepository.decode_tail(raw)
    return (
        payload.get("name", ""),
        payload.get("lat", 0.0),
        payload.get("lon", 0.0),
        frozenset(intern(str(k).lower()) for k in payload.get("keywords", ())),
    )


class PartialAggregates:
    """One region invocation's exact per-POI aggregates.

    Two dicts keyed by POI in first-encounter order, ``grade_sums`` and
    ``counts``.  Their values are plain floats and ints — no per-POI
    container — so folding thousands of friends allocates nothing the
    cyclic garbage collector has to track and re-traverse.  Numbers
    only: a POI's attributes are per-POI constants (DESIGN.md §7), kept
    once for the cluster in the POI attribute table, as a row or as the
    payload to decode one from.
    """

    __slots__ = ("grade_sums", "counts")

    def __init__(self) -> None:
        self.grade_sums: Dict[int, float] = {}
        self.counts: Dict[int, int] = {}

    @classmethod
    def from_rows(
        cls, rows: Iterable[Tuple[int, float, int]]
    ) -> "PartialAggregates":
        """Fold ``(poi_id, grade_sum, count)`` rows."""
        aggregates = cls()
        for poi_id, grade_sum, count in rows:
            aggregates.add(poi_id, grade_sum, count)
        return aggregates

    def add(self, poi_id: int, grade_sum: float, count: int) -> None:
        """Fold one contribution (the coprocessor's friend loop inlines
        exactly this)."""
        if poi_id in self.counts:
            self.grade_sums[poi_id] += grade_sum
            self.counts[poi_id] += count
        else:
            self.grade_sums[poi_id] = grade_sum
            self.counts[poi_id] = count

    def __len__(self) -> int:
        return len(self.counts)

    def rows(self):
        """``(poi_id, grade_sum, count)`` per POI, in first-encounter
        order."""
        return zip(
            self.counts, self.grade_sums.values(), self.counts.values()
        )

    def only(self, poi_ids: Sequence[int]) -> "PartialAggregates":
        """The aggregates of ``poi_ids``, in that order."""
        kept = PartialAggregates()
        kept.grade_sums = dict(
            zip(poi_ids, map(self.grade_sums.__getitem__, poi_ids))
        )
        kept.counts = dict(zip(poi_ids, map(self.counts.__getitem__, poi_ids)))
        return kept


def negated_keys(aggregates: PartialAggregates, hotness: bool) -> list:
    """Each POI's negated *local* sort key, in the aggregates' order:
    the count for hotness, the local mean for interest.  A stream emits
    in ``(-key, poi_id)`` order, and a brownout's cap keeps a region's
    first POIs of that order."""
    counts = aggregates.counts.values()
    if hotness:
        return list(map(neg, counts))
    # a / -c is -(a / c) exactly: rounding is sign-symmetric.
    return list(map(truediv, aggregates.grade_sums.values(), map(neg, counts)))


#: Batches in the first ordered chunk of a stream (a merge rarely runs
#: more rounds); each later chunk at least doubles what is ordered.  A
#: stream that chunk would half-cover is ordered whole, by one
#: ``sorted()``.
CHUNK_BATCHES = 16

_TRIPLE = itemgetter(1, 2, 3)


class TopKPartialStream(StreamingPartial):
    """One region's score-sorted partial, emitted in bounded batches.

    Built by :class:`~repro.core.modules.query_answering.
    VisitScanCoprocessor` after its (always complete) aggregation scan
    and its filter.  ``aggregates`` (a :class:`PartialAggregates`) holds
    the exact ``grade_sum`` / ``count`` of each POI that passes the
    query's bbox/keyword predicate and doubles as the merger's
    random-access probe map.  ``poi_attrs`` is the invocation's POI
    attribute table: the cluster-wide ``RegionScanCache.poi_attrs`` (as
    the region's generation carried it) on a clean cached invocation,
    else one of the invocation's own; either holds a payload of every
    POI in ``aggregates``.  The merger's final fetch of the winners'
    rows reads it and decodes what it lacks from those payloads.

    Emission walks all ``size`` aggregates in ``(-key, poi_id)`` order,
    where the key is the *local* sort key (count for hotness, local mean
    for interest); ``cursor`` counts the items of that order emitted so
    far and :meth:`frontier` is the key of the next one.  Nothing is
    ordered until the first :meth:`next_batch` or :meth:`frontier`, and
    then only what the merger reads: ``items`` is the prefix of ``(-key,
    poi_id, grade_sum, count)`` tuples ordered so far, and
    ``items[:cursor]`` were emitted.  A chunk's cut-off key comes from a
    heap over the negated key column; a ``compress`` picks the items at
    or above it (ties whole) and only those are sorted.  The prefix
    always reaches one item past the cursor, so the frontier is read off
    it.
    """

    __slots__ = (
        "region_id",
        "top_k",
        "hotness",
        "batch",
        "size",
        "items",
        "aggregates",
        "poi_attrs",
        "span",
        "cells_scanned",
        "prune_token",
        "deadline_token",
        "cursor",
        "emitted",
        "probe_hits",
        "cells_decoded",
        "finished",
        "pruned",
        "aborted",
        "_negkeys",
        "_heap",
        "_popped",
        "_cut",
        "_columns",
    )

    def __init__(
        self,
        region_id: int,
        aggregates: PartialAggregates,
        poi_attrs: MutableMapping[int, tuple],
        top_k: int,
        hotness: bool,
        batch: int,
        span: Optional[Any] = None,
        cells_scanned: int = 0,
        deadline_token: Optional[CancellationToken] = None,
    ) -> None:
        self.region_id = region_id
        self.top_k = top_k
        self.hotness = hotness
        #: Sorted-access items per merger round; 0 marks a stream the
        #: merger drains (:meth:`drain`) instead of pruning.
        self.batch = batch
        self.aggregates = aggregates
        self.size = len(aggregates)
        self.items: List[Tuple[float, int, float, int]] = []
        self.poi_attrs = poi_attrs
        self.span = span
        self.cells_scanned = cells_scanned
        #: The merger's proof-abort switch: tripping it with reason
        #: ``topk_proof`` stops emission at the next checkpoint.  Using
        #: a real token (not a bare flag) keeps the short-circuit on the
        #: same cooperative-cancellation plumbing deadline aborts use.
        self.prune_token = CancellationToken()
        self.deadline_token = deadline_token
        self.cursor = 0
        self.emitted = 0
        self.probe_hits = 0
        self.cells_decoded = 0
        self.finished = not self.size
        self.pruned = False
        self.aborted = False
        #: The negated local key column, in the aggregates' order; None
        #: until the stream is first read.
        self._negkeys: Optional[list] = None
        self._heap: Optional[list] = None
        self._popped = 0
        self._cut: Any = None
        #: The four item columns as lists, for gathers.
        self._columns: Optional[tuple] = None

    # ------------------------------------------------------------ bounds

    def frontier(self) -> Optional[float]:
        """Local sort key of the next unemitted item — the monotone
        non-increasing upper bound on anything this region has not
        shipped yet.  None once the region is exhausted."""
        if self.cursor >= self.size:
            return None
        if self._negkeys is None:
            self._prepare()
        negkey = self.items[self.cursor][0]
        return float(-negkey) if self.hotness else -negkey

    @property
    def remaining(self) -> int:
        return self.size - self.cursor

    @property
    def shipped(self) -> int:
        """Items that actually crossed the (simulated) wire: emitted
        sorted-access entries plus random-access probe answers.  Drives
        the web tier's per-item merge cost in the timeline."""
        return self.emitted + self.probe_hits

    @property
    def cells_avoided(self) -> int:
        """Filter-passing aggregates never emitted — each one a
        shipped-and-merged partial (and, cold, an attribute decode) the
        exhaustive path would have paid for."""
        return self.remaining

    # ---------------------------------------------------------- ordering

    def _rows(self):
        """``(-key, poi_id, grade_sum, count)`` per POI, unordered."""
        counts = self.aggregates.counts
        return zip(
            self._negkeys, counts, self.aggregates.grade_sums.values(),
            counts.values(),
        )

    def _prepare(self) -> None:
        """Read the key column, then order the first chunk."""
        self._negkeys = negated_keys(self.aggregates, self.hotness)
        self._extend(1)

    def _extend(self, need: int) -> None:
        """Order at least the first ``need`` items."""
        negkeys, size = self._negkeys, self.size
        target = max(need, 2 * len(self.items), CHUNK_BATCHES * self.batch)
        if not self.items and 2 * target >= size:
            self.items = sorted(self._rows())
            return
        masks = []
        if self.items:
            masks.append(map(lt, repeat(self._cut), negkeys))
        if target < size:
            heap = self._heap
            if heap is None:
                heap = self._heap = negkeys.copy()
                heapify(heap)
            for _ in range(target - self._popped - 1):
                heappop(heap)
            # The target-th smallest negated key overall: everything at
            # or below it is ordered now, ties included.
            self._cut = heappop(heap)
            self._popped = target
            masks.append(map(ge, repeat(self._cut), negkeys))
        positions = list(compress(
            range(size), masks[0] if len(masks) == 1 else map(and_, *masks)
        ))
        columns = self._columns
        if columns is None:
            counts = self.aggregates.counts
            columns = self._columns = (
                negkeys, list(counts),
                list(self.aggregates.grade_sums.values()),
                list(counts.values()),
            )
        self.items += sorted(zip(*(
            map(column.__getitem__, positions) for column in columns
        )))

    # ---------------------------------------------------------- emission

    def _attrs_for(self, poi_id: int) -> tuple:
        poi_attrs = self.poi_attrs
        attrs = poi_attrs.get(poi_id)
        if attrs is None:
            attrs = poi_attrs[poi_id] = decode_attrs(
                poi_attrs.payloads[poi_id]
            )
            self.cells_decoded += 1
        return attrs

    def next_batch(self) -> List[Tuple[int, float, int]]:
        """Emit up to ``batch`` ``(poi_id, grade_sum, count)`` triples in
        sort-key order.  No attribute decode happens here — the merger
        fetches attributes for the final winners only.  Raises
        :class:`QueryCancelled` when the query's deadline token trips
        mid-emission, with the cursor at the first failing position —
        never rounded to a batch; returns ``[]`` once exhausted or
        proof-pruned."""
        if self.finished or self.prune_token.cancelled:
            return []
        if self._negkeys is None:
            self._prepare()
        start = self.cursor
        stop = min(start + self.batch, self.size)
        if len(self.items) < min(stop + 1, self.size):
            self._extend(stop + 1)
        token = self.deadline_token
        if token is not None:
            # The deadline probe before emitting each position.
            base = self.cells_scanned
            blown = token.first_blown(base + start, base + stop - 1)
            if blown is not None:
                self.cursor = blown - base
                token.checkpoint(blown)
        self.cursor = stop
        out = list(map(_TRIPLE, self.items[start:stop]))
        self.emitted += len(out)
        if stop >= self.size:
            self.finished = True
        return out

    def drain(self):
        """Emit every ``(poi_id, grade_sum, count)`` at once, in the
        aggregates' order (a per-POI fold does not depend on it) and
        with no deadline checkpoint."""
        self.cursor = self.emitted = self.size
        self.finished = True
        return self.aggregates.rows()

    # -------------------------------------------------------- short-circuit

    def short_circuit(self, reason: str = REASON_TOPK_PROOF) -> None:
        """Merger-driven early termination of this region's emission.

        ``topk_proof`` means the region is *complete by proof*: every
        unemitted item is strictly below the global threshold, so the
        answer is exact without it — coverage is untouched and the
        region must never appear in ``missing_regions``.  A deadline
        reason instead marks the stream aborted (degraded semantics).
        """
        self.prune_token.cancel(reason)
        if reason == REASON_TOPK_PROOF:
            self.pruned = True
        else:
            self.aborted = True
        if self.span is not None:
            if reason == REASON_TOPK_PROOF:
                self.span.tag("pruned_early", True)
            else:
                self.span.tag("cancel_reason", reason)
            self.span.tag("topk_emitted", self.emitted)
            self.span.tag("topk_avoided", self.cells_avoided)


class TopKMerger:
    """Web-tier threshold-algorithm merge over region partial streams.

    ``merge`` drains streams whose ``batch`` is 0: it folds all they
    hold, with no probe.  Otherwise it drives sorted access (``next_batch``) in rounds and one
    batched random-access probe per region per round, maintains the
    running k-th-score threshold, and short-circuits streams whose frontier
    provably cannot matter.  Either way it then ranks the candidate set
    with the documented key ``(-score, -visit_count, poi_id)``, keeps
    exactly the top k, and only then decodes attributes — TA's final
    random-access fetch — from each winner's discovering region.
    Returns those k exact ``(poi_id, grade_sum, count, name, lat, lon)``
    rows, ranked, plus a stats dict for counters, spans and the EXPLAIN
    surface.
    """

    def __init__(
        self,
        k: int,
        hotness: bool,
        deadline_token: Optional[CancellationToken] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.hotness = hotness
        self.deadline_token = deadline_token

    # ------------------------------------------------------------- merge

    def merge(
        self, streams: List[TopKPartialStream]
    ) -> Tuple[List[tuple], Dict[str, Any]]:
        streams = sorted(streams, key=lambda s: s.region_id)
        #: poi_id -> [grade_sum, count]; exact at entry.
        candidates: Dict[int, list] = {}
        #: poi_id -> the stream that first emitted it; the final
        #: attribute fetch for a winner goes to this region (attribute
        #: rows are per-POI constants, DESIGN.md §7: every region's copy
        #: is byte-identical).
        discoverers: Dict[int, TopKPartialStream] = {}
        rounds = 0
        #: (candidate, region) pairs random access asked about.
        probes = 0
        #: Sum of cancelled-stream frontiers (hotness); an undiscovered
        #: POI living only in cancelled streams is bounded by it.
        cancelled_bound = 0.0
        threshold: Optional[float] = None
        #: Min-heap of the k largest candidate scores: its root is the
        #: k-th score once it holds k.
        top: List[float] = []
        deadline_hit = False
        #: Float slack of the interest bound (module docstring).
        mean_slack = 1.0 + (len(streams) + 1) * float_info.epsilon

        def resolve(fresh: Set[int]) -> None:
            """Random access for one round's newly discovered POIs:
            every region answers for the ones it holds (its aggregate
            map is total, whatever its emission cursor).  Regions fold
            in ascending order — per POI the drained merge's
            float-addition order, so scores are byte-identical.  Every
            (POI, region) pair counts as a probe; only hits are touched."""
            for s in streams:
                grade_sums = s.aggregates.grade_sums
                counts = s.aggregates.counts
                hits = counts.keys() & fresh
                s.probe_hits += len(hits)
                for poi_id in hits:
                    entry = candidates.get(poi_id)
                    if entry is None:
                        candidates[poi_id] = [
                            grade_sums[poi_id], counts[poi_id]
                        ]
                    else:
                        entry[0] += grade_sums[poi_id]
                        entry[1] += counts[poi_id]
            for poi_id in fresh:
                grade_sum, count = candidates[poi_id]
                score = float(count) if self.hotness else grade_sum / count
                # Scores are final on entry, so the k largest only grow.
                if len(top) < self.k:
                    heappush(top, score)
                elif score > top[0]:
                    heapreplace(top, score)

        active = [s for s in streams if not s.finished]
        if streams and not streams[0].batch:
            # Drain: every stream emits all it holds, and each triple
            # folds into its POI with no probe and no deadline
            # checkpoint — regions in ascending order, ``resolve``'s
            # float order, so scores are bit-identical in both merges.
            for stream in active:
                for poi_id, grade_sum, count in stream.drain():
                    entry = candidates.get(poi_id)
                    if entry is None:
                        candidates[poi_id] = [grade_sum, count]
                        discoverers[poi_id] = stream
                    else:
                        entry[0] += grade_sum
                        entry[1] += count
            active = []
        while active:
            rounds += 1
            fresh: Set[int] = set()
            for stream in active:
                try:
                    batch = stream.next_batch()
                except QueryCancelled:
                    deadline_hit = True
                    break
                for poi_id, _gs, _cnt in batch:
                    if poi_id not in discoverers:
                        discoverers[poi_id] = stream
                        fresh.add(poi_id)
            resolve(fresh)
            probes += len(fresh) * len(streams)
            if deadline_hit:
                break
            if len(top) == self.k:
                threshold = top[0]
                # Short-circuit pass: strict inequality guarantees a
                # POI tying the k-th score is still discovered, so the
                # ranker's tie-break sees identical candidates.
                for stream in active:
                    if stream.finished or stream.pruned:
                        continue
                    frontier = stream.frontier()
                    if frontier is None:
                        continue
                    if self.hotness:
                        if cancelled_bound + frontier < threshold:
                            cancelled_bound += frontier
                            stream.short_circuit(REASON_TOPK_PROOF)
                    elif frontier * mean_slack < threshold:
                        stream.short_circuit(REASON_TOPK_PROOF)
            active = [
                s for s in active
                if not (s.finished or s.pruned)
            ]

        if deadline_hit:
            for stream in streams:
                if not (stream.finished or stream.pruned):
                    stream.short_circuit(REASON_DEADLINE)

        # Rank with the documented key, trim to k, and only then pay
        # the attribute decode — for precisely these winners.
        hotness = self.hotness
        ranked = sorted(
            (-(float(count) if hotness else grade_sum / count), -count, poi_id)
            for poi_id, (grade_sum, count) in candidates.items()
        )
        merged = []
        for _score, _count, poi_id in ranked[: self.k]:
            grade_sum, count = candidates[poi_id]
            name, lat, lon, _kw = discoverers[poi_id]._attrs_for(poi_id)
            merged.append((poi_id, grade_sum, count, name, lat, lon))
        stats = {
            "rounds": rounds,
            "probes": probes,
            "candidates": len(candidates),
            "cells_avoided": sum(s.cells_avoided for s in streams),
            "cells_decoded": sum(s.cells_decoded for s in streams),
            "pruned_regions": sum(1 for s in streams if s.pruned),
            "aborted_regions": sorted(
                s.region_id for s in streams if s.aborted
            ),
            "threshold": threshold,
        }
        return merged, stats
