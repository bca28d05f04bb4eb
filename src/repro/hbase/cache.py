"""Write-aware region scan cache for the personalized query path.

One personalized query scans each queried friend's salted key range
inside the region owning it.  Overlapping friend sets across queries
re-scan the same ranges; :class:`RegionScanCache` memoizes the
*per-friend* aggregation so a friend's visits are scanned once per
(region, time-window) until the region mutates.

The cache holds **one generation per region**: ``{seqid, entries}``,
valid only while ``seqid`` equals the region's current
:attr:`~repro.hbase.region.Region.data_seqid`.  Any MemStore write,
flush, compaction or TTL change bumps the region's seqid, so the next
lookup finds the generation superseded and replaces it wholesale —
O(1) invalidation, no per-entry stamps.  A region invocation takes the
cache lock O(1) times: one :meth:`RegionScanCache.lookup` for the
generation, plain dict probes on it per friend, and at most one
:meth:`RegionScanCache.store` for everything it scanned.

**Admission is observed, not configured.**  ``lookup`` hands out a
generation only when an *earlier* invocation opened it at the same
seqid, i.e. the region was not written between two consecutive
queries.  An invocation that had to open the generation gets ``None``:
nothing to read, and it must not fill.  A write-hot region therefore
costs one lookup per invocation and is otherwise never cached.

Cached answers are byte-identical to a cache-off run by construction:
the coprocessor captures the seqid before it scans, stops reading and
filling the moment the region's seqid moves, and entries keep the
first-encounter order of a fresh scan so every float sum folds in the
same order.  Entries are stored without parsing anything (see
:class:`FriendPartial`).  The cache is never consulted under an
injected fault and is explicitly invalidated for regions a failed node
owned (see ``HBaseCluster.fail_node``).

Thread-safe: one lock guards the generation map and the stats
counters; no metrics call is made while it is held.  Like the rest of
``hbase``, this module never imports ``core`` — the metrics sink is
duck-typed.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from itertools import islice
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

#: Labels every metric emission carries, so the scan cache's series
#: stay distinct from the hot-POI cache's.
_METRIC_LABELS = {"cache": "scan"}


class FriendPartial:
    """One friend's unfiltered per-POI aggregates inside one region.

    Packed columns of ``poi_id`` / ``grade_sum`` / ``count`` in the
    first-encounter order of the scan that produced them, plus one
    *reference* per POI to a raw visit payload (the ``cell.value``
    object the memstore / store file already holds — no copy).  Nothing
    is parsed to build one; attributes are decoded from ``raws`` lazily,
    by whichever query needs them, and a fold that needs none never
    touches them.
    """

    __slots__ = ("poi_ids", "grade_sums", "counts", "raws")

    def __init__(
        self,
        poi_ids: Iterable[int],
        grade_sums: Iterable[float],
        counts: Iterable[int],
        raws: Iterable[bytes],
    ) -> None:
        self.poi_ids = array("Q", poi_ids)
        self.grade_sums = array("d", grade_sums)
        self.counts = array("I", counts)
        self.raws = tuple(raws)


class POIAttrTable(dict):
    """``poi_id -> (name, lat, lon, frozenset(lower-cased keywords))``:
    every row a clean invocation parsed, in any region and either
    coprocessor mode.  Replicated POI attributes are per-POI constants
    (DESIGN.md §7), so rows outlive seqid moves; :meth:`RegionScanCache.
    clear` drops them.  Read with plain ``get``; a write to a full
    table empties it first (never more than ``max_entries`` rows, and
    a drifting POI population cannot pin dead ones)."""

    __slots__ = ("max_entries", "_lock")

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        self.max_entries = max_entries
        self._lock = threading.Lock()

    def __setitem__(self, poi_id: int, attrs: tuple) -> None:
        with self._lock:
            if len(self) >= self.max_entries:
                self.clear()
            super().__setitem__(poi_id, attrs)


class Generation:
    """Everything cached for one region at one data seqid."""

    __slots__ = ("seqid", "entries")

    def __init__(self, seqid: int) -> None:
        self.seqid = seqid
        #: ``(friend_id, since, until)`` -> :class:`FriendPartial`.
        #: Probed without the cache lock; written only by
        #: :meth:`RegionScanCache.store`.
        self.entries: Dict[Tuple, FriendPartial] = {}


class RegionScanCache:
    """Per-region generations of per-friend region scan aggregates.

    Parameters
    ----------
    max_entries:
        Bound on the total number of :class:`FriendPartial` entries
        across all generations; least-recently-used generations are
        evicted whole on overflow.  Also bounds ``poi_attrs``' rows.
    metrics:
        Optional duck-typed ``PlatformMetrics``: evictions and
        invalidations are reported as ``cache.evictions`` /
        ``cache.invalidations`` with ``{"cache": "scan"}`` labels.
        Hits/misses are *not* emitted here; they flow through the
        coprocessor's counters into per-query results and are
        aggregated by the query-answering module.
    """

    def __init__(
        self, max_entries: int = 65536, metrics: Optional[Any] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._metrics = metrics
        self._lock = threading.Lock()
        #: region_id -> generation, least recently used first.
        self._generations: "OrderedDict[int, Generation]" = OrderedDict()
        #: Total entries across generations (kept <= ``max_entries``).
        self._size = 0
        #: Read and written by invocations without the cache lock.
        self.poi_attrs = POIAttrTable(max_entries)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------- per-invocation API

    def lookup(self, region_id: int, current_seqid: int) -> Optional[Generation]:
        """The region's generation, if an earlier invocation opened it
        at ``current_seqid``.

        Otherwise the region was written since the last query (or never
        queried): a fresh empty generation replaces whatever was there
        and ``None`` is returned — the caller has nothing to read and is
        not admitted to fill.
        """
        with self._lock:
            generation = self._generations.get(region_id)
            if generation is not None and generation.seqid == current_seqid:
                self._generations.move_to_end(region_id)
                return generation
            dropped = self._invalidate((region_id,))
            self._generations[region_id] = Generation(current_seqid)
        self._emit("cache.invalidations", dropped)
        return None

    def store(
        self,
        region_id: int,
        generation: Generation,
        fills: Mapping[Tuple, FriendPartial],
    ) -> None:
        """Add one invocation's freshly scanned partials to the
        generation :meth:`lookup` handed it.  The caller guarantees the
        region's seqid still equalled ``generation.seqid`` after the
        scan that produced each one; fills for a generation that was
        replaced or invalidated meanwhile are dropped."""
        evicted = 0
        with self._lock:
            if self._generations.get(region_id) is not generation:
                return
            entries = generation.entries
            before = len(entries)
            # One generation may never outgrow the whole budget.
            room = self.max_entries - before
            if len(fills) > room:
                fills = dict(islice(fills.items(), room))
            entries.update(fills)
            self._size += len(entries) - before
            self._generations.move_to_end(region_id)
            while self._size > self.max_entries:
                oldest = next(iter(self._generations))
                evicted += self._discard(oldest)
            self._evictions += evicted
        self._emit("cache.evictions", evicted)

    def record(self, hits: int, misses: int) -> None:
        """Add one invocation's per-friend probe outcomes to the stats."""
        with self._lock:
            self._hits += hits
            self._misses += misses

    # ------------------------------------------------------ invalidation

    def invalidate_regions(self, region_ids: Iterable[int]) -> int:
        """Drop the generations of the given regions (node failure
        path).  Returns the number of entries removed."""
        with self._lock:
            removed = self._invalidate(region_ids)
        self._emit("cache.invalidations", removed)
        return removed

    def clear(self) -> int:
        """Drop everything, POI attribute rows included; returns the
        number of entries removed."""
        self.poi_attrs.clear()
        with self._lock:
            removed = self._invalidate(list(self._generations))
        self._emit("cache.invalidations", removed)
        return removed

    def sweep(self, current_seqids: Mapping[int, int]) -> int:
        """Reap generations superseded by the regions' current seqids.
        The scheduler's ``cache_maintenance`` job calls this so memory
        is not held by entries no lookup will ever accept again.
        Returns the number of entries dropped."""
        with self._lock:
            removed = self._invalidate(
                [
                    region_id
                    for region_id, generation in self._generations.items()
                    if generation.seqid
                    != current_seqids.get(region_id, generation.seqid)
                ]
            )
        self._emit("cache.invalidations", removed)
        return removed

    def _invalidate(self, region_ids: Iterable[int]) -> int:
        """Drop the listed regions' generations; caller holds the lock.
        Returns (and counts as invalidations) the entries removed."""
        removed = sum(
            self._discard(region_id)
            for region_id in region_ids
            if region_id in self._generations
        )
        self._invalidations += removed
        return removed

    def _discard(self, region_id: int) -> int:
        """Remove one region's generation; caller holds the lock.
        Returns how many entries went with it."""
        count = len(self._generations.pop(region_id).entries)
        self._size -= count
        return count

    def _emit(self, name: str, amount: int) -> None:
        """Report to the metrics sink; never called under the lock."""
        if amount and self._metrics is not None:
            self._metrics.increment(name, amount, labels=_METRIC_LABELS)

    # ------------------------------------------------------------- stats

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def stats(self) -> Dict[str, Any]:
        """Counters + occupancy for the admin endpoint and tests."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": self._size,
                "poi_attrs": len(self.poi_attrs),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }
