"""HotIn Update Module (paper Section 2.2) — batch and incremental.

"Hotness and interest are inferred by an aggregation over all visits
persisted in Visits Repository within a configurable time frame T.  In
order to aggregate hotness and interest, a MapReduce job configured with
a scanner over all visits in T, is instantiated."

- **hotness** = number of visits to the POI in T (crowd concentration);
- **interest** = mean sentiment grade of those visits (friend opinion).

Two maintenance strategies coexist:

- :class:`HotInUpdateModule.run` is the paper's periodic batch MapReduce
  recompute over the full visits window — correct but as stale as its
  period and as expensive as the table is large.
- :class:`IncrementalHotIn` keeps the same aggregates maintained from
  visit *deltas* as the streaming ingest tier lands them: per-POI,
  per-event-timestamp ``(count, grade_sum)`` cells that any window can
  be summed from exactly.  Hotness freshness becomes one applier batch,
  not one batch-job period.
- :meth:`HotInUpdateModule.reconcile` demotes the MapReduce job to a
  periodic verification pass: it recomputes the window from the table
  (the source of truth), compares against the incremental state, and
  repairs any divergence (out-of-band writes, a crashed applier's lost
  fold) — repair is idempotent because it *replaces* window state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...mapreduce import JobRunner, MapReduceJob
from ..repositories.poi import POIRepository
from ..repositories.visits import VisitsRepository


@dataclass
class HotInReport:
    """What one periodic run did."""

    window: Tuple[int, int]
    visits_scanned: int
    pois_updated: int
    pois_unknown: int


@dataclass
class ReconcileReport:
    """Outcome of one incremental-vs-batch verification pass."""

    window: Tuple[int, int]
    visits_scanned: int
    #: Distinct POIs present in either the batch truth or the
    #: incremental window state.
    pois_checked: int
    #: POIs whose incremental ``(count, grade_sum)`` diverged from the
    #: batch recompute (including missing/extra POIs).
    mismatched: int
    #: Window repairs applied to the incremental state (== mismatched).
    repaired: int
    #: POI-repository rows rewritten from the recomputed truth.
    pois_updated: int

    @property
    def in_sync(self) -> bool:
        return self.mismatched == 0


#: One streamed visit delta: ``(poi_id, event_timestamp, grade)``.
HotInDelta = Tuple[int, int, float]


class IncrementalHotIn:
    """Delta-maintained hotness/interest aggregates.

    State is ``poi_id -> {event_timestamp -> [count, grade_sum]}``:
    exact enough that *any* time window sums to precisely what the batch
    MapReduce recompute over the same visits produces (same counts, same
    float ``grade_sum`` whenever grade addition is order-insensitive —
    the reconciliation pass repairs the residue when it is not).  Folds
    are commutative, so applier threads may interleave freely and a
    load-aware repartition never corrupts the state.

    Memory is bounded by :meth:`prune`, which drops cells older than the
    retention horizon (windows reaching below a pruned timestamp are the
    batch job's business again).

    Thread-safe: every method takes the internal lock; :meth:`fold` is
    called concurrently by per-partition applier workers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_poi: Dict[int, Dict[int, List[float]]] = {}
        #: POIs touched since the last :meth:`refresh_pois`.
        self._dirty: Set[int] = set()
        self.deltas_folded = 0
        #: Highest event timestamp folded so far (event-time watermark).
        self.watermark = 0
        #: Timestamps below this were pruned; window queries reaching
        #: below it are refused as unanswerable from incremental state.
        self.pruned_below = 0

    # ------------------------------------------------------------- folds

    def fold(self, deltas: Iterable[HotInDelta]) -> int:
        """Absorb streamed visit deltas; returns how many were folded."""
        folded = 0
        with self._lock:
            by_poi = self._by_poi
            dirty = self._dirty
            for poi_id, timestamp, grade in deltas:
                cells = by_poi.get(poi_id)
                if cells is None:
                    cells = by_poi[poi_id] = {}
                slot = cells.get(timestamp)
                if slot is None:
                    cells[timestamp] = [1, grade]
                else:
                    slot[0] += 1
                    slot[1] += grade
                dirty.add(poi_id)
                folded += 1
                if timestamp > self.watermark:
                    self.watermark = timestamp
            self.deltas_folded += folded
        return folded

    @property
    def dirty_count(self) -> int:
        """POIs with folded-but-unpublished deltas (freshness input)."""
        with self._lock:
            return len(self._dirty)

    # ----------------------------------------------------------- queries

    def _window_sum(
        self, poi_id: int, since: Optional[int], until: Optional[int]
    ) -> Tuple[int, float]:
        cells = self._by_poi.get(poi_id, {})
        count = 0
        grade_sum = 0.0
        for ts, (c, gsum) in cells.items():
            if since is not None and ts < since:
                continue
            if until is not None and ts >= until:
                continue
            count += c
            grade_sum += gsum
        return count, grade_sum

    def snapshot(
        self, since: Optional[int] = None, until: Optional[int] = None
    ) -> Dict[int, Tuple[int, float]]:
        """``{poi_id: (count, grade_sum)}`` over ``[since, until)`` —
        the comparable form of the batch reducer's pre-division state.
        POIs with no in-window visits are omitted, matching the batch
        job's output domain."""
        with self._lock:
            out: Dict[int, Tuple[int, float]] = {}
            for poi_id in self._by_poi:
                count, grade_sum = self._window_sum(poi_id, since, until)
                if count:
                    out[poi_id] = (count, grade_sum)
            return out

    def pairs(
        self, since: Optional[int] = None, until: Optional[int] = None
    ) -> List[Tuple[int, Tuple[int, float]]]:
        """``(poi_id, (count, mean_grade))`` pairs — the exact shape the
        batch reducer emits, for oracle comparisons."""
        return [
            (poi_id, (count, grade_sum / count))
            for poi_id, (count, grade_sum) in sorted(
                self.snapshot(since, until).items()
            )
        ]

    # ----------------------------------------------------------- updates

    def refresh_pois(
        self,
        pois: POIRepository,
        since: Optional[int] = None,
        until: Optional[int] = None,
        only_dirty: bool = True,
    ) -> int:
        """Push current window aggregates into the POI repository.

        With ``only_dirty`` (the applier's per-batch mode) only POIs
        touched since the previous refresh are rewritten — the batch
        job's full-table rewrite becomes a handful of row updates per
        ingest batch.  Returns the number of POI rows updated.
        """
        with self._lock:
            targets = list(self._dirty if only_dirty else self._by_poi)
            self._dirty.clear()
        updated = 0
        for poi_id in targets:
            with self._lock:
                count, grade_sum = self._window_sum(poi_id, since, until)
            if count == 0:
                continue
            if pois.update_hotin(
                poi_id, hotness=float(count), interest=grade_sum / count
            ):
                updated += 1
        return updated

    def repair_window(
        self,
        poi_id: int,
        since: Optional[int],
        until: Optional[int],
        count: int,
        grade_sum: float,
    ) -> None:
        """Replace one POI's in-window state with recomputed truth.

        Drops every cell in ``[since, until)`` and installs a single
        synthetic cell carrying the batch-true aggregate, stamped at the
        window start (so later windows covering this one still sum
        correctly).  Idempotent — re-running a repair is a no-op.
        """
        with self._lock:
            cells = self._by_poi.setdefault(poi_id, {})
            for ts in [
                t
                for t in cells
                if (since is None or t >= since)
                and (until is None or t < until)
            ]:
                del cells[ts]
            if count:
                anchor = since if since is not None else 0
                cells[anchor] = [count, grade_sum]
                if anchor > self.watermark:
                    self.watermark = anchor
            elif not cells:
                del self._by_poi[poi_id]
            self._dirty.add(poi_id)

    def prune(self, before_ts: int) -> int:
        """Drop cells with ``timestamp < before_ts``; returns how many.

        Bounds memory to the retention horizon the reconciliation window
        needs; anything older is batch-job territory.
        """
        removed = 0
        with self._lock:
            for poi_id in list(self._by_poi):
                cells = self._by_poi[poi_id]
                stale = [ts for ts in cells if ts < before_ts]
                for ts in stale:
                    del cells[ts]
                removed += len(stale)
                if not cells:
                    del self._by_poi[poi_id]
            if before_ts > self.pruned_below:
                self.pruned_below = before_ts
        return removed

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "pois_tracked": len(self._by_poi),
                "timestamp_cells": sum(
                    len(c) for c in self._by_poi.values()
                ),
                "dirty_pois": len(self._dirty),
                "deltas_folded": self.deltas_folded,
                "watermark": self.watermark,
                "pruned_below": self.pruned_below,
            }


class HotInUpdateModule:
    """The periodic hotness/interest aggregation job."""

    def __init__(
        self,
        visits_repository: VisitsRepository,
        poi_repository: POIRepository,
        runner: Optional[JobRunner] = None,
        num_mappers: int = 8,
    ) -> None:
        self.visits = visits_repository
        self.pois = poi_repository
        self.num_mappers = num_mappers
        self._runner = runner

    def _aggregate(self, since: int, until: int, name: str):
        """Run the MapReduce aggregation; returns ``(pairs, n_records)``
        where pairs are ``(poi_id, (count, grade_sum))``."""
        records = list(self.visits.all_visits(since, until))

        def mapper(visit, emit, counters):
            emit(visit.poi_id, (1, visit.grade))

        def combiner(poi_id, values, emit, counters):
            count = sum(v[0] for v in values)
            grade_sum = sum(v[1] for v in values)
            emit(poi_id, (count, grade_sum))

        def reducer(poi_id, values, emit, counters):
            count = sum(v[0] for v in values)
            grade_sum = sum(v[1] for v in values)
            emit(poi_id, (count, grade_sum))

        job = MapReduceJob(
            name=name,
            mapper=mapper,
            combiner=combiner,
            reducer=reducer,
            num_mappers=self.num_mappers,
            num_reducers=max(2, self.num_mappers // 2),
        )
        result = (self._runner or JobRunner()).run(job, records)
        return result.pairs, len(records)

    def run(self, since: int, until: int) -> HotInReport:
        """Aggregate over visits in ``[since, until)`` and write back."""
        pairs, scanned = self._aggregate(since, until, "hotin-update")
        updated = 0
        unknown = 0
        for poi_id, (count, grade_sum) in pairs:
            if self.pois.update_hotin(
                poi_id,
                hotness=float(count),
                interest=grade_sum / count if count else 0.0,
            ):
                updated += 1
            else:
                unknown += 1
        return HotInReport(
            window=(since, until),
            visits_scanned=scanned,
            pois_updated=updated,
            pois_unknown=unknown,
        )

    def reconcile(
        self, incremental: IncrementalHotIn, since: int, until: int
    ) -> ReconcileReport:
        """Verify-and-repair pass: batch recompute vs incremental state.

        The visits table is the source of truth.  Any POI whose
        incremental ``(count, grade_sum)`` over the window differs from
        the recompute — a crashed applier's lost fold, an out-of-band
        :meth:`VisitsRepository.store`, float drift from fold-order
        differences — has its window state *replaced* with the truth and
        its POI-repository row rewritten.  Replacement makes the pass
        idempotent: a second run over the same window repairs nothing.
        """
        pairs, scanned = self._aggregate(since, until, "hotin-reconcile")
        truth: Dict[int, Tuple[int, float]] = {
            poi_id: (count, grade_sum) for poi_id, (count, grade_sum) in pairs
        }
        observed = incremental.snapshot(since, until)
        mismatched = [
            poi_id
            for poi_id in set(truth) | set(observed)
            if truth.get(poi_id) != observed.get(poi_id)
        ]
        updated = 0
        for poi_id in mismatched:
            count, grade_sum = truth.get(poi_id, (0, 0.0))
            incremental.repair_window(poi_id, since, until, count, grade_sum)
            if count and self.pois.update_hotin(
                poi_id, hotness=float(count), interest=grade_sum / count
            ):
                updated += 1
        return ReconcileReport(
            window=(since, until),
            visits_scanned=scanned,
            pois_checked=len(set(truth) | set(observed)),
            mismatched=len(mismatched),
            repaired=len(mismatched),
            pois_updated=updated,
        )
