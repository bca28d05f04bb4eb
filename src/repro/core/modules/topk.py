"""Threshold-algorithm top-k early termination for the query fan-out.

The exhaustive personalized path (ROADMAP item 3's complaint) has every
region decode and ship its *complete* per-POI aggregate list, and the
web tier ranks only at the end — a k=10 query over 6000 friends pays a
full JSON attribute parse for every distinct POI in every region.  This
module implements threshold-algorithm (TA) pruning in the style of
"Efficient Top K Temporal Spatial Keyword Search": regions emit
score-sorted partial batches with a monotone upper bound on anything
they have not emitted yet, and the merger maintains the running k-th
score threshold, short-circuiting region emission the moment its bound
proves nothing else from that region can enter the top k.

Two invariants make the pruned answer *byte-identical* to the
exhaustive one (the differential oracle suite in
``tests/test_topk_oracle.py`` asserts this over hundreds of seeded
workloads, and ``tests/test_topk_properties.py`` proves the bound math
directly):

1. **Scans always complete.**  The per-(region, POI) ``(grade_sum,
   count)`` aggregates are exact before any emission starts: the grade
   of every cell comes from the payload's fixed header
   (``decode_grade``), so phase A needs *zero* payload parses.  What
   early termination avoids is the expensive half — per-POI attribute
   decoding, partial shipping, and web-tier merging — never the
   aggregation itself, so no top-k member can ever lose a contribution.
2. **Candidates resolve exactly on discovery.**  In the round a region
   first emits a POI, the merger random-access *probes* every region's
   completed aggregate map (one key-set intersection per region per
   round, no decode) and folds the contributions in ascending region
   order — the same float-addition order as the exhaustive web-tier
   merge.  A candidate's global score is final before the round's
   threshold is taken; later emission can only *discover new*
   candidates, which is exactly what the frontier bounds cap.

Attribute decoding — the expensive full JSON parse per POI — is
deferred all the way to the end: emission ships bare ``(poi_id,
grade_sum, count)`` triples, and once the merge terminates the merger
ranks its candidates with the web tier's documented key and performs
TA's final random-access fetch for *exactly the k winners* (a filter
also needs the row of every examined item).  Every parse lands in the
cluster's one POI attribute table (``RegionScanCache.poi_attrs``): a POI
is parsed once, not once per region per query, and an unfiltered k=10
query decodes at most 10 payloads however many thousand distinct POIs
the friend set touched.

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

import heapq
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


def passes_filter(attrs: tuple, bbox: Optional[Any], wanted: set) -> bool:
    """A query's spatial/textual predicate over one attribute row."""
    _name, lat, lon, poi_keywords = attrs
    if bbox is not None and not bbox.contains_coords(lat, lon):
        return False
    return not wanted or not wanted.isdisjoint(poi_keywords)


class PartialAggregates:
    """One region invocation's exact per-POI aggregates.

    Two dicts keyed by POI in first-encounter order, ``grade_sums`` and
    ``counts``.  Their values are plain floats and ints — no per-POI
    container — so folding thousands of friends allocates nothing the
    cyclic garbage collector has to track and re-traverse.

    Raw payloads are kept for the POIs a friend was the first to bring
    and never read by the fold.  A freshly scanned friend has its
    payloads at hand, so the fold puts those of its new POIs straight
    into ``scanned_raws``; a cached friend's would cost a fourth column
    in the warm fold, so ``sources`` lists ``(poi_ids, raws)`` per
    cached friend instead and :meth:`raw` builds the ``poi_id ->
    payload`` map from both on first use.  Attributes are per-POI
    constants (DESIGN.md §7) and decoded once per cluster, so most
    regions never build the map and never touch a payload.
    """

    __slots__ = ("grade_sums", "counts", "scanned_raws", "sources", "_raws")

    def __init__(self) -> None:
        self.grade_sums: Dict[int, float] = {}
        self.counts: Dict[int, int] = {}
        self.scanned_raws: Dict[int, bytes] = {}
        self.sources: List[Tuple[Sequence[int], Sequence[bytes]]] = []
        self._raws: Optional[Dict[int, bytes]] = None

    @classmethod
    def from_rows(
        cls, rows: Iterable[Tuple[int, float, int, Optional[bytes]]]
    ) -> "PartialAggregates":
        """Fold ``(poi_id, grade_sum, count, raw_payload)`` rows."""
        aggregates = cls()
        for poi_id, grade_sum, count, raw in rows:
            aggregates.add(poi_id, grade_sum, count)
            aggregates.sources.append(((poi_id,), (raw,)))
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

    def raw(self, poi_id: int) -> Optional[bytes]:
        """One representative raw visit payload of the POI (the first
        one the fold encountered)."""
        raws = self._raws
        if raws is None:
            raws = self._raws = {}
            # Last friend first, so the first-encountered payload wins.
            for poi_ids, payloads in reversed(self.sources):
                raws.update(zip(poi_ids, payloads))
            # A POI is in ``scanned_raws`` only if a scanned friend met
            # it before every cached one.
            raws.update(self.scanned_raws)
        return raws[poi_id]


class TopKPartialStream(StreamingPartial):
    """One region's score-sorted partial, emitted in bounded batches.

    Built by :class:`~repro.core.modules.query_answering.
    VisitScanCoprocessor` after its (always complete) aggregation scan.
    ``aggregates`` (a :class:`PartialAggregates`) holds each POI's exact
    ``grade_sum`` / ``count`` and doubles as the merger's random-access
    probe map; it also finds one representative raw visit payload of a
    POI on demand.  ``items`` is the same data as ``(sort_key, poi_id,
    grade_sum, count)`` tuples in ascending order, where ``sort_key`` is
    the negated *local* sort key (count for hotness, local mean for
    interest) — i.e. descending by that key with ``poi_id`` as the
    tie-break.  ``poi_attrs`` is the POI attribute table: the cluster-wide
    ``RegionScanCache.poi_attrs`` on a clean cached invocation, else a
    dict of the invocation's own.  The stream reads it and adds what it
    has to parse, so whatever any region or query parsed before costs
    this stream nothing.
    """

    __slots__ = (
        "region_id",
        "top_k",
        "hotness",
        "batch",
        "items",
        "aggregates",
        "poi_attrs",
        "bbox",
        "wanted",
        "span",
        "cells_scanned",
        "prune_token",
        "deadline_token",
        "cursor",
        "emitted",
        "skipped",
        "probe_hits",
        "cells_decoded",
        "finished",
        "pruned",
        "aborted",
    )

    def __init__(
        self,
        region_id: int,
        aggregates: PartialAggregates,
        poi_attrs: MutableMapping[int, tuple],
        top_k: int,
        hotness: bool,
        batch: int,
        bbox: Optional[Any] = None,
        wanted: Optional[set] = None,
        span: Optional[Any] = None,
        cells_scanned: int = 0,
        deadline_token: Optional[CancellationToken] = None,
    ) -> None:
        self.region_id = region_id
        self.top_k = top_k
        self.hotness = hotness
        self.batch = max(1, batch)
        self.aggregates = aggregates
        # One pass, no key function: poi ids are unique, so plain tuple
        # order is exactly (sort key descending, poi_id ascending).
        if hotness:
            items = [
                (-count, poi_id, grade_sum, count)
                for poi_id, grade_sum, count in aggregates.rows()
            ]
        else:
            items = [
                (-(grade_sum / count), poi_id, grade_sum, count)
                for poi_id, grade_sum, count in aggregates.rows()
            ]
        items.sort()
        self.items: List[Tuple[float, int, float, int]] = items
        self.poi_attrs = poi_attrs
        self.bbox = bbox
        self.wanted = wanted or set()
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
        #: Emission-order items examined but rejected by the query's
        #: spatial/textual filter (their decode is still charged).
        self.skipped = 0
        self.probe_hits = 0
        self.cells_decoded = 0
        self.finished = not items
        self.pruned = False
        self.aborted = False

    # ------------------------------------------------------------ bounds

    def frontier(self) -> Optional[float]:
        """Local sort key of the next unemitted item — the monotone
        non-increasing upper bound on anything this region has not
        shipped yet.  None once the region is exhausted."""
        if self.cursor >= len(self.items):
            return None
        _key, _poi_id, grade_sum, count = self.items[self.cursor]
        return float(count) if self.hotness else grade_sum / count

    @property
    def remaining(self) -> int:
        return len(self.items) - self.cursor

    @property
    def shipped(self) -> int:
        """Items that actually crossed the (simulated) wire: emitted
        sorted-access entries plus random-access probe answers.  Drives
        the web tier's per-item merge cost in the timeline."""
        return self.emitted + self.probe_hits

    @property
    def cells_avoided(self) -> int:
        """Per-POI aggregates never examined — each one an attribute
        decode plus a shipped-and-merged partial the exhaustive path
        would have paid for."""
        return self.remaining

    # ---------------------------------------------------------- emission

    def _attrs_for(self, poi_id: int) -> tuple:
        attrs = self.poi_attrs.get(poi_id)
        if attrs is None:
            attrs = self.poi_attrs[poi_id] = decode_attrs(
                self.aggregates.raw(poi_id)
            )
            self.cells_decoded += 1
        return attrs

    def next_batch(self) -> List[Tuple[int, float, int]]:
        """Emit up to ``batch`` filter-passing ``(poi_id, grade_sum,
        count)`` triples in sort-key order.  No attribute decode happens
        here for unfiltered queries — the merger fetches attributes for
        the final winners only; a spatial/textual filter needs the
        attribute row of every examined item to evaluate the predicate.
        Raises :class:`QueryCancelled` when the query's deadline token
        trips mid-emission; returns ``[]`` once exhausted or
        proof-pruned."""
        out: List[Tuple[int, float, int]] = []
        items, batch = self.items, self.batch
        bbox, wanted = self.bbox, self.wanted
        filtered = bbox is not None or bool(wanted)
        prune_token, deadline_token = self.prune_token, self.deadline_token
        while len(out) < batch and self.cursor < len(items):
            if prune_token.cancelled:
                # The merger proved the rest cannot enter the top k.
                break
            if deadline_token is not None:
                # Emission work is charged at record cost on top of the
                # scan's spend, so a blown deadline stops decoding here.
                deadline_token.checkpoint(self.cells_scanned + self.cursor)
            _key, poi_id, grade_sum, count = items[self.cursor]
            self.cursor += 1
            if filtered and not passes_filter(
                self._attrs_for(poi_id), bbox, wanted
            ):
                self.skipped += 1
                continue
            out.append((poi_id, grade_sum, count))
        self.emitted += len(out)
        if self.cursor >= len(items):
            self.finished = True
        return out

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

    ``merge`` drives sorted access (``next_batch``) in rounds and one
    batched random-access probe per region per round, maintains the
    running k-th-score threshold, and short-circuits streams whose frontier
    provably cannot matter.  Once emission terminates it ranks the
    candidate set with the web tier's documented key ``(-score,
    -visit_count, poi_id)``, keeps exactly the top k, and only then
    decodes attributes — TA's final random-access fetch — from each
    winner's discovering region.  Returns those k exact 6-tuples plus a
    stats dict for counters, spans and the EXPLAIN surface.  (Trimming
    here is sound because the downstream ranker orders with the same
    total key: the k survivors are precisely the rows it would keep.)
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
        #: Exact global scores, maintained alongside ``candidates``.
        scores: Dict[int, float] = {}
        #: poi_id -> the stream that first emitted it; the final
        #: attribute fetch for a winner goes to this region (attribute
        #: rows are per-POI constants, DESIGN.md §7: any region's copy
        #: is byte-identical to the one the exhaustive merge would keep).
        discoverers: Dict[int, TopKPartialStream] = {}
        rounds = 0
        #: Sum of cancelled-stream frontiers (hotness); an undiscovered
        #: POI living only in cancelled streams is bounded by it.
        cancelled_bound = 0.0
        threshold: Optional[float] = None
        deadline_hit = False
        #: Float slack of the interest bound (module docstring).
        mean_slack = 1.0 + (len(streams) + 1) * float_info.epsilon

        def resolve(fresh: Set[int]) -> None:
            """Random access for one round's newly discovered POIs:
            every region answers for the ones it holds (its aggregate
            map is total, whatever its emission cursor).  Regions fold
            in ascending order — per POI the exhaustive web-tier merge's
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
                scores[poi_id] = (
                    float(count) if self.hotness else grade_sum / count
                )

        def kth_score() -> Optional[float]:
            if len(scores) < self.k:
                return None
            return heapq.nlargest(self.k, scores.values())[-1]

        active = [s for s in streams if not s.finished]
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
            if deadline_hit:
                break
            threshold = kth_score()
            if threshold is not None:
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

        # Rank with the web tier's exact key, trim to k, and only then
        # pay the attribute decode — for precisely these winners.
        ranked = sorted(
            (-scores[poi_id], -entry[1], poi_id)
            for poi_id, entry in candidates.items()
        )
        merged = []
        for _score, _count, poi_id in ranked[: self.k]:
            grade_sum, count = candidates[poi_id]
            name, lat, lon, _kw = discoverers[poi_id]._attrs_for(poi_id)
            merged.append((poi_id, grade_sum, count, name, lat, lon))
        stats = {
            "rounds": rounds,
            "probes": len(candidates) * len(streams),
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
