"""Write-aware region scan cache for the personalized query path.

One personalized query scans each queried friend's salted key range
inside the region owning it.  Overlapping friend sets across queries
re-scan the same ranges; :class:`RegionScanCache` memoizes the
*per-friend* aggregation so a friend's visits are scanned once per
(region, time-window) until that friend is written or the region's
storage is reorganized.

The cache holds **one generation per region**: the entries plus the
position (*mark*) in the region's write journal they are current up
to.  **A write invalidates the friend it touched, not the region**:
:meth:`RegionScanCache.lookup` asks the region for the rows written
since the mark (``Region.written_since``), evicts the entries of the
friends owning those rows (all their windows; the caller says which
friend a row belongs to), advances the mark and hands the generation
out.  Only a region that cannot enumerate its writes — a *structural*
event since the mark: flush, compaction, bulk load, crash, replay, TTL
change, journal overflow — has its generation replaced wholesale.  A
region invocation takes the cache lock O(1) times: one ``lookup``,
plain dict probes on the generation per friend, and at most one
:meth:`RegionScanCache.store` for everything it scanned.

**The first invocation only opens.**  ``lookup`` answers ``None`` when
it had to open the region's generation (never queried, or replaced just
now): nothing to read, and the caller must not fill.  A region whose
writes the journal cannot follow between two queries therefore costs
one lookup per invocation and is otherwise never cached; one it can
follow — quiet or written — is filled by the second query and served
from the third on.

Cached answers are byte-identical to a cache-off run by construction.
A region makes a put readable before it journals it, so an entry whose
scan missed a put is older than that put's journal row: the next lookup
evicts it, and a fill that arrives after that lookup is dropped by
``store`` (the generation object it was scanned under is no longer the
region's).  On top of that the coprocessor captures the region's
``data_seqid`` before its lookup and stops reading and filling the
moment it moves (DESIGN.md §7.1 has the argument).  Entries keep the
first-encounter order of a fresh scan so every float sum folds in the
same order, and are stored without parsing anything (see
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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

#: Labels every metric emission carries, so the scan cache's series
#: stay distinct from the hot-POI cache's.
_METRIC_LABELS = {"cache": "scan"}
#: ``cache.invalidations`` says which kind: a written friend's entries
#: evicted, or a region's generation dropped wholesale.
_WRITE_LABELS = {"cache": "scan", "reason": "write"}
_GENERATION_LABELS = {"cache": "scan", "reason": "generation"}


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
    """What is cached for one region, as of one journal mark.

    ``mark`` never changes on an instance: a lookup that consumes
    journal rows re-wraps the same ``entries`` / ``owners`` under the
    new mark.  An invocation therefore holds "the entries as of the mark
    my lookup reached", and :meth:`RegionScanCache.store`'s identity
    check is also the mark check.
    """

    __slots__ = ("mark", "entries", "owners", "overflows")

    def __init__(
        self,
        mark: int,
        overflows: int,
        entries: Optional[Dict[Tuple, FriendPartial]] = None,
        owners: Optional[Dict[Any, List[Tuple]]] = None,
    ) -> None:
        #: The region's journal position everything in ``entries`` is
        #: current up to (``Region.written_since``'s argument).
        self.mark = mark
        #: The region's ``journal_overflows`` when the generation was
        #: opened (tells an overflow from the other structural events
        #: when the region stops answering for ``mark``).
        self.overflows = overflows
        #: ``(friend_id, since, until)`` -> :class:`FriendPartial`.
        #: Probed without the cache lock; written only under it.
        self.entries: Dict[Tuple, FriendPartial] = (
            {} if entries is None else entries
        )
        #: ``friend_id`` -> the keys of ``entries`` that friend owns
        #: (one per window), so a write evicts its owner's entries
        #: without walking the others.
        self.owners: Dict[Any, List[Tuple]] = {} if owners is None else owners


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
        ``cache.invalidations`` with ``{"cache": "scan"}`` labels, the
        latter also labelled ``reason`` = ``write`` (a written friend's
        entries) or ``generation`` (a region's, wholesale).
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
        self._evicted_by_write = 0
        self._journal_overflows = 0

    # ------------------------------------------------- per-invocation API

    def lookup(
        self, region: Any, owner_of: Callable[[bytes], Any]
    ) -> Optional[Generation]:
        """The region's generation, brought up to the writes journaled
        so far: the entries of every owner (``owner_of(row)``) written
        since the generation's mark are evicted first.

        None when there is nothing to hand out — the region was never
        queried, or it no longer enumerates the writes since the mark
        (a structural event, see ``Region.written_since``): a fresh
        empty generation replaces whatever was there, and the caller
        has nothing to read and is not admitted to fill.

        ``region`` is duck-typed: ``region_id``, ``journal_mark()``,
        ``written_since(mark)``, ``journal_overflows``.
        """
        region_id = region.region_id
        evicted = dropped = 0
        with self._lock:
            generation = self._generations.get(region_id)
            rows = (
                region.written_since(generation.mark)
                if generation is not None
                else None
            )
            if rows is None:
                if generation is not None:
                    dropped = self._invalidate((region_id,))
                    if region.journal_overflows != generation.overflows:
                        self._journal_overflows += 1
                self._generations[region_id] = Generation(
                    region.journal_mark(), region.journal_overflows
                )
                generation = None
            else:
                self._generations.move_to_end(region_id)
                if rows:
                    evicted = self._evict_owners(generation, map(owner_of, rows))
                    generation = self._generations[region_id] = Generation(
                        generation.mark + len(rows),
                        generation.overflows,
                        generation.entries,
                        generation.owners,
                    )
        self._emit("cache.invalidations", evicted, _WRITE_LABELS)
        self._emit("cache.invalidations", dropped, _GENERATION_LABELS)
        return generation

    def store(
        self,
        region_id: int,
        generation: Generation,
        fills: Mapping[Tuple, FriendPartial],
    ) -> None:
        """Add one invocation's freshly scanned partials to the
        generation :meth:`lookup` handed it.  Dropped when that is no
        longer the region's generation *object*: it was replaced or
        invalidated meanwhile, or another lookup moved the mark — the
        writes it consumed may postdate these scans, and its evictions
        came before these fills could be evicted (a late fill)."""
        evicted = 0
        with self._lock:
            if self._generations.get(region_id) is not generation:
                return
            entries, owners = generation.entries, generation.owners
            before = len(entries)
            # One generation may never outgrow the whole budget.
            room = self.max_entries - before
            if len(fills) > room:
                fills = dict(islice(fills.items(), room))
            for key in fills:
                if key not in entries:
                    owners.setdefault(key[0], []).append(key)
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
        self._emit("cache.invalidations", removed, _GENERATION_LABELS)
        return removed

    def clear(self) -> int:
        """Drop everything, POI attribute rows included; returns the
        number of entries removed."""
        self.poi_attrs.clear()
        with self._lock:
            removed = self._invalidate(list(self._generations))
        self._emit("cache.invalidations", removed, _GENERATION_LABELS)
        return removed

    def sweep(self, regions: Iterable[Any]) -> int:
        """Reap the generations of those ``regions`` that no longer
        enumerate the writes since the generation's mark: no lookup
        will accept them again.  A written region whose journal still
        reaches back to the mark keeps its entries — the next lookup
        evicts the written friends' and serves the rest.  The
        scheduler's ``cache_maintenance`` job calls this so memory is
        not held by dead entries.  Returns the number dropped."""
        with self._lock:
            superseded = []
            for region in regions:
                generation = self._generations.get(region.region_id)
                if (
                    generation is not None
                    and region.written_since(generation.mark) is None
                ):
                    superseded.append(region.region_id)
            removed = self._invalidate(superseded)
        self._emit("cache.invalidations", removed, _GENERATION_LABELS)
        return removed

    def _evict_owners(self, generation: Generation, owners: Iterable) -> int:
        """Drop every entry (all windows) of the given owners from the
        generation; caller holds the lock.  Returns the number removed."""
        entries, index = generation.entries, generation.owners
        removed = 0
        for owner in owners:
            for key in index.pop(owner, ()):
                del entries[key]
                removed += 1
        self._size -= removed
        self._evicted_by_write += removed
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

    def _emit(
        self, name: str, amount: int, labels: Mapping = _METRIC_LABELS
    ) -> None:
        """Report to the metrics sink; never called under the lock."""
        if amount and self._metrics is not None:
            self._metrics.increment(name, amount, labels=labels)

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
                "evicted_by_write": self._evicted_by_write,
                "journal_overflows": self._journal_overflows,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }
