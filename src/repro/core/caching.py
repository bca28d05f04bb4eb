"""Web-tier cache over non-personalized answers.

:class:`HotPOICache` memoizes non-personalized (SQL-path) answers, which
depend only on the POI table's hotness/interest columns.  Those change
exactly when the HotIn scheduler job rewrites them, so entries are
validated against an explicit *epoch* (bumped by every HotIn run) plus
the POI repository's write version (catching out-of-band inserts and
updates).  A stale stamp is a miss; answers are byte-identical with the
cache on or off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple


class HotPOICache:
    """Epoch- and version-stamped LRU over non-personalized answers.

    Keys are the full SQL-path query shape (bbox, keywords, sort, limit);
    values are the scored rows.  An entry is valid only while both
    stamps match: the explicit HotIn ``epoch`` (bumped by
    ``MoDisSENSE.run_hotin`` after every refresh) and the POI
    repository's ``version`` (bumped by every insert/update, catching
    writes that happen outside the HotIn job).
    """

    def __init__(
        self,
        max_entries: int = 256,
        metrics: Optional[Any] = None,
        event_log: Optional[Any] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._metrics = metrics
        #: Optional wide-event log: epoch bumps (mass invalidations)
        #: become ``cache.epoch_bump`` events so a sudden hot-POI
        #: hit-rate collapse has a visible cause on the timeline.
        self.event_log = event_log
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[int, int, Any]]" = (
            OrderedDict()
        )
        self._epoch = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def bump_epoch(self) -> int:
        """Explicit invalidation: every cached answer predates the new
        epoch and can no longer be served.  Returns the new epoch."""
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            stale = len(self._entries)
            self._entries.clear()
            self._invalidations += stale
        self._emit(invalidations=stale)
        if self.event_log is not None:
            self.event_log.emit(
                {
                    "type": "cache.epoch_bump",
                    "cache": "hot_poi",
                    "epoch": epoch,
                    "invalidated": stale,
                }
            )
        return epoch

    def get(self, key: Hashable, version: int) -> Optional[Any]:
        """The cached rows for ``key`` if stamped with the current epoch
        and ``version``; None (and eager drop) otherwise."""
        with self._lock:
            entry = self._entries.get(key)
            hit = (
                entry is not None
                and entry[0] == self._epoch
                and entry[1] == version
            )
            if hit:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
                if entry is not None:
                    del self._entries[key]
                    self._invalidations += 1
        if hit:
            self._emit(hits=1)
            return entry[2]
        self._emit(invalidations=int(entry is not None), misses=1)
        return None

    def get_stale(self, key: Hashable) -> Optional[Any]:
        """The cached rows for ``key`` regardless of epoch/version —
        the brownout ladder's level-1 trade: a stale hot-POI answer
        (flagged degraded by the caller) instead of a rejection.  The
        entry is *kept*: epoch bumps still purge, but a mismatched
        version stamp is tolerated rather than dropped, so recovery
        finds the cache warm."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            return None
        self._emit(stale_serves=1)
        return entry[2]

    def store(self, key: Hashable, version: int, rows: Any) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = (self._epoch, version, rows)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        self._emit(evictions=evicted)

    def clear(self) -> int:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._invalidations += removed
        self._emit(invalidations=removed)
        return removed

    def _emit(self, **amounts: int) -> None:
        """Report ``cache.<name>`` counts; never called under the lock
        (the registry takes its own)."""
        if self._metrics is not None:
            for name, amount in amounts.items():
                if amount:
                    self._metrics.increment(
                        "cache." + name, amount, labels={"cache": "hot_poi"}
                    )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "epoch": self._epoch,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }
