"""A region: one contiguous row-key range of a table.

Regions are HBase's unit of distribution and of coprocessor execution.
Each region owns a memstore + store files per column family and serves
gets, puts, deletes and filtered scans over its ``[start_key, end_key)``
slice of the table.
"""

from __future__ import annotations

import itertools
import threading
from operator import attrgetter, ge
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ColumnFamilyNotFoundError, StorageError
from .cell import Cell
from .filters import ScanFilter
from .hfile import StoreFile, merge_keyed_runs, merge_sorted_runs
from .memstore import MemStore
from .wal import RegionWALHandle

_region_ids = itertools.count()

#: Most rows a region's write journal holds (see :meth:`Region.
#: written_since`).  A reader catching up pays one owner eviction per
#: journaled row and a cold refill pays one fold per stored cell, so
#: past about a region's worth of cells (~6000 in the benchmark shape)
#: enumerating stops being cheaper than starting over.  Flushes and
#: compactions keep the journal, so this bound alone caps it: 4096 row
#: references are 32 KB a region.  A constant: nothing varies it.
JOURNAL_MAX = 4096


def _join(older: List[Cell], newer: List[Cell]) -> Optional[List[Cell]]:
    """Two runs' slices of one range (neither empty) as a single sorted
    list, when one sorts wholly before the other; None when their rows
    interleave.  Runs are joined oldest first, so a slice that falls
    *between* two already joined also reads as interleaved: that costs
    a merge, never an answer."""
    if newer[-1].row < older[0].row:  # newer timestamps sort first
        return newer + older
    if older[-1].row < newer[0].row:
        return older + newer
    return None


class Region:
    """One shard of a table, spanning ``[start_key, end_key)``.

    ``start_key=None`` means "from the beginning of the key space";
    ``end_key=None`` means "to the end".
    """

    def __init__(
        self,
        families: Sequence[str],
        start_key: Optional[bytes] = None,
        end_key: Optional[bytes] = None,
        flush_threshold_bytes: int = 4 * 1024 * 1024,
        wal: Optional[RegionWALHandle] = None,
        minor_compaction_threshold: int = 0,
    ) -> None:
        if not families:
            raise StorageError("a region needs at least one column family")
        self.region_id = next(_region_ids)
        self.start_key = start_key
        self.end_key = end_key
        self.families = list(families)
        self._flush_threshold = flush_threshold_bytes
        self._memstores: Dict[str, MemStore] = {
            f: MemStore(flush_threshold_bytes) for f in families
        }
        #: Store files per family, oldest first.  Read only through
        #: :meth:`_files`, which seals staged runs first.
        self._store_files: Dict[str, List[StoreFile]] = {f: [] for f in families}
        #: Bulk-loaded runs not yet written out, per family, oldest
        #: first.  Store-file data already (a crash keeps them); the
        #: first ordered access seals them into one file (DESIGN.md §9,
        #: "Staged runs").
        self._staged: Dict[str, List[List[Cell]]] = {f: [] for f in families}
        self._stage_lock = threading.Lock()
        #: Monotonic per-region write counter; doubles as a version
        #: tie-breaker when callers put twice at the same timestamp.
        self.write_count = 0
        #: Monotonic data sequence id: bumped by every mutation that can
        #: change what a reader observes — puts (including tombstones),
        #: bulk loads, TTL cutoff changes, crashes and replays.  Not by
        #: what only reorganizes storage: flushes, compactions and the
        #: seal of staged runs change no scan's answer.
        #: A scan-cache reader captures it before its lookup and looks
        #: up again before its next probe once it moves.  Only ever bumped
        #: under ``_journal_lock``, after the mutation it announces is
        #: readable, so concurrent writers cannot lose a bump.
        self.data_seqid = 0
        #: Write journal: the rows of the puts (tombstones included)
        #: applied since the last *structural* event, in journal order,
        #: aliasing the memstore's ``cell.row`` objects.  Position
        #: ``_journal_start + i`` of the region's lifetime write stream
        #: is ``_journal[i]``; a structural event (bulk load, crash,
        #: replay, TTL change, overflow) empties it and moves the start
        #: past every mark handed out so far.
        self._journal: List[bytes] = []
        self._journal_start = 0
        self._journal_lock = threading.Lock()
        #: Times the journal was emptied for outgrowing ``JOURNAL_MAX``.
        self.journal_overflows = 0
        #: Durability log: every put is appended before it is applied; a
        #: full flush lets the log truncate.  A cluster gives each of its
        #: regions one at creation; None only on a region built outside
        #: a cluster without one.
        self.wal = wal
        #: Store files per family before a minor compaction triggers
        #: (0 disables automatic minor compaction).
        self.minor_compaction_threshold = minor_compaction_threshold
        #: Per-family TTL horizon: cells with ``timestamp < cutoff`` are
        #: invisible to reads and dropped by major compaction (HBase's
        #: column-family TTL, driven by explicit application time since
        #: the store has no wall clock).
        self._ttl_cutoff: Dict[str, int] = {}
        #: Scans served since region creation.  Best-effort (bumped
        #: without a lock; under concurrent queries an increment can be
        #: lost) — it feeds hot-region attribution in trace tags, not
        #: the cost model.
        self.scans_served = 0
        #: Of those, :meth:`scan_cells` calls answered with one run's
        #: slice instead of the merge (same best-effort tally).
        self.scans_sliced = 0

    # ----------------------------------------------------------- routing

    def contains_row(self, row: bytes) -> bool:
        if self.start_key is not None and row < self.start_key:
            return False
        if self.end_key is not None and row >= self.end_key:
            return False
        return True

    def _memstore(self, family: str) -> MemStore:
        try:
            return self._memstores[family]
        except KeyError:
            raise ColumnFamilyNotFoundError(
                "family %r not declared (have %s)" % (family, self.families)
            ) from None

    # ------------------------------------------------------------ writes

    def put(self, cell: Cell) -> None:
        """Write one cell; flushes the family's memstore when full.

        With a WAL attached, the cell reaches the log *before* the
        memstore — the ordering crash recovery depends on.
        """
        if not self.contains_row(cell.row):
            raise StorageError(
                "row %r outside region range [%r, %r)"
                % (cell.row, self.start_key, self.end_key)
            )
        if self.wal is not None:
            self.wal.append(cell)
        store = self._memstore(cell.family)
        store.put(cell)
        self._wrote((cell.row,))
        if store.should_flush:
            self.flush(cell.family)

    def put_batch(self, cells: Sequence[Cell]) -> Tuple[int, int]:
        """Write many cells as one group commit.

        Equivalent to calling :meth:`put` per cell — same WAL records,
        same memstore contents, same recovery — but the whole batch
        shares ONE WAL sync boundary (:meth:`RegionWALHandle.append_batch`)
        and each family's memstore absorbs its share in one sorted merge.
        All-or-nothing against *validation*: every cell's row and family
        are checked before anything is logged or applied, so a bad cell
        cannot leave the batch half-applied.

        Returns the WAL ``(first_sequence, last_sequence)`` covering the
        batch (``(0, 0)`` with no WAL attached or an empty batch); the
        ingest tier uses it as its delta-fold watermark.  Flush checks
        run once per family after the merge, so a batch may overshoot
        the flush threshold by at most one batch — the deliberate price
        of group commit.
        """
        if not cells:
            return (0, 0)
        for cell in cells:
            if not self.contains_row(cell.row):
                raise StorageError(
                    "row %r outside region range [%r, %r)"
                    % (cell.row, self.start_key, self.end_key)
                )
            self._memstore(cell.family)  # family must exist pre-WAL
        seq_range = (0, 0)
        if self.wal is not None:
            seq_range = self.wal.append_batch(cells)
        by_family: Dict[str, List[Cell]] = {}
        for cell in cells:
            by_family.setdefault(cell.family, []).append(cell)
        for family, group in by_family.items():
            self._memstore(family).put_batch(group)
        self._wrote([cell.row for cell in cells])
        for family in by_family:
            if self._memstores[family].should_flush:
                self.flush(family)
        return seq_range

    def bulk_load(self, family: str, cells: Sequence[Cell]) -> None:
        """Adopt a sorted run of one family's cells as store-file data:
        the initial load's write path, HBase's bulk load.

        Nothing is logged and nothing passes through the memstore, so
        the run is durable by construction — it survives :meth:`crash`
        and is never replayed — and, having no log copy, has no repair
        source if a block of it rots (DESIGN.md §10).  It ranks as the
        region's newest store file: its cells win exact key ties
        against older files and lose them to the memstore, whatever
        the memstore held at load time.

        All-or-nothing against validation: ``cells`` must be of
        ``family``, strictly ascending in ``sort_key`` and inside
        ``[start_key, end_key)``.  The run is only *staged* here; see
        :meth:`_files`.
        """
        self._require_family(family)
        cells = list(cells)
        if not cells:
            return
        if set(map(attrgetter("family"), cells)) != {family}:
            raise StorageError(
                "bulk load of family %r holds cells of another" % family
            )
        keys = list(map(Cell.sort_key, cells))
        if any(map(ge, keys, itertools.islice(keys, 1, None))):
            raise StorageError(
                "bulk-loaded cells must be strictly ascending in sort_key"
            )
        for row in (cells[0].row, cells[-1].row):  # sorted: the extremes
            if not self.contains_row(row):
                raise StorageError(
                    "row %r outside region range [%r, %r)"
                    % (row, self.start_key, self.end_key)
                )
        # Staged without these keys: 181k tuples kept from load to seal
        # and freed there leave holes all over the heap that later
        # allocations fill (measured: warm ``filtered2000`` searches
        # +4 %); recomputing them at the seal costs ~50 ms.
        with self._stage_lock:
            self._staged[family].append(cells)
        self._restructured(writes=len(cells))

    def _files(self, family: str) -> List[StoreFile]:
        """The family's store files, oldest first — what every reader
        of ``_store_files`` goes through; only flush, compaction and
        the seal below write it.

        Runs staged by :meth:`bulk_load` are sealed here, into ONE store
        file, by whichever ordered access comes first (the deferral
        ``MemStore._pending`` uses): a load arriving in k calls costs
        one O(n log k) merge and one Bloom/checksum pass, not k
        cumulative ones.  Sealing changes no reader-visible content and
        does not move ``data_seqid``.
        """
        if self._staged[family]:
            with self._stage_lock:
                staged = self._staged[family]
                if staged:
                    cells, keys = merge_keyed_runs(staged)
                    # File first: a reader that finds nothing staged
                    # must find the file.
                    self._store_files[family].append(
                        StoreFile(cells, keys=keys)
                    )
                    self._staged[family] = []
        return self._store_files[family]

    # ----------------------------------------------------- write journal
    #
    # One order for every mutation: make it readable FIRST, then — in
    # one hold of ``_journal_lock`` — journal it and bump ``data_seqid``.
    # A reader that finds a mutation's seqid bump or journal entry can
    # therefore already read its data, and a scan that did not see a
    # put finished before that put's row was journaled (DESIGN.md §7.1
    # walks the interleavings).

    def _wrote(self, rows: Sequence[bytes]) -> None:
        """The puts of ``rows`` are readable: journal them and announce
        them.  A batch the journal has no room for is a structural
        event — the journal starts over empty."""
        with self._journal_lock:
            if len(self._journal) + len(rows) > JOURNAL_MAX:
                self._reset_journal()
                self.journal_overflows += 1
            else:
                self._journal.extend(rows)
            self.write_count += len(rows)
            self.data_seqid += len(rows)

    def _restructured(self, writes: int = 0) -> None:
        """A structural event is readable: what a scan returns changed
        in a way no list of rows describes (``writes`` cells arrived
        with it).  Every journal mark so far stops resolving."""
        with self._journal_lock:
            self._reset_journal()
            self.write_count += writes
            self.data_seqid += writes or 1

    def _reset_journal(self) -> None:
        """Empty the journal and move its start past the old end, so
        ``written_since`` answers None for every mark handed out so far
        (``_journal_lock`` held)."""
        self._journal_start += len(self._journal) + 1
        self._journal = []

    def journal_mark(self) -> int:
        """Where the journal ends now: what :meth:`written_since` will
        enumerate from."""
        with self._journal_lock:
            return self._journal_start + len(self._journal)

    def written_since(self, mark: int) -> Optional[List[bytes]]:
        """The rows of the puts journaled since :meth:`journal_mark`
        returned ``mark`` (``mark + len(rows)`` is the mark to continue
        from), or None when a structural event intervened and the
        difference cannot be enumerated.  At most ``JOURNAL_MAX``
        rows."""
        with self._journal_lock:
            if mark < self._journal_start:
                return None
            return self._journal[mark - self._journal_start :]

    def delete(self, row: bytes, family: str, qualifier: bytes, timestamp: int) -> None:
        """Write a tombstone shadowing versions up to ``timestamp``."""
        self.put(
            Cell(
                row=row,
                family=family,
                qualifier=qualifier,
                timestamp=timestamp,
                is_delete=True,
            )
        )

    def flush(self, family: Optional[str] = None) -> None:
        """Freeze memstore contents into a new immutable store file.

        A *full* flush (no family argument) leaves nothing unflushed, so
        the WAL — if attached — can truncate everything logged so far.
        Not a structural event: the file is added before the memstore
        is emptied, and readers take the memstore before the files, so
        a concurrent scan sees every cell (at worst twice, which the
        merge collapses); the journal and ``data_seqid`` stay put.
        """
        targets = [family] if family else self.families
        for fam in targets:
            store = self._memstore(fam)
            if len(store) == 0:
                continue
            files = self._files(fam)
            files.append(StoreFile(store.snapshot()))
            store.clear()
            if 0 < self.minor_compaction_threshold <= len(files):
                self.minor_compact(fam)
        if family is None and self.wal is not None:
            self.wal.truncate_to(self.wal.last_sequence)

    def minor_compact(self, family: str) -> None:
        """Size-tiered minor compaction: merge this family's store files
        into one run *without* dropping tombstones or old versions —
        deletes must survive until a major compaction, because an older
        shadowed put may still sit in another (future) file.  Swaps the
        file list whole, so a scan reads the old files or the new one;
        not a structural event."""
        files = self._files(family)
        if len(files) <= 1:
            return
        cells, keys = merge_keyed_runs([sf.cells() for sf in files])
        self._store_files[family] = [StoreFile(cells, keys=keys)]

    def crash(self) -> int:
        """Lose the memstores, as a region-server crash does.

        Store files survive (they are \"on disk\", bulk-loaded runs
        awaiting their seal included) and the WAL survives (it lives on
        the server log / its own object) — exactly the durable/volatile
        split recovery depends on.  Returns how many
        memstore cells were dropped; recovery is
        ``replay_cells(wal.replay())`` before the region reopens.
        """
        dropped = 0
        for store in self._memstores.values():
            dropped += len(store)
            store.clear()
        self._restructured()
        return dropped

    def replay_cells(self, cells: Iterable[Cell]) -> int:
        """Rebuild memstore state from already-logged cells (recovery).

        Unlike :meth:`put`, nothing is re-appended to the WAL — these
        cells are *from* the WAL, and logging them again would double
        them on the next replay.  No flush is triggered either; the
        supervisor decides when the recovered region flushes.  Returns
        the number of cells applied.
        """
        applied = 0
        for cell in cells:
            if not self.contains_row(cell.row):
                raise StorageError(
                    "row %r outside region range [%r, %r)"
                    % (cell.row, self.start_key, self.end_key)
                )
            self._memstore(cell.family).put(cell)
            applied += 1
        if applied:
            self._restructured(writes=applied)
        return applied

    def store_files_for(self, family: str) -> List[StoreFile]:
        """The family's live store files (scrubber access; do not mutate)."""
        return list(self._files(self._require_family(family)))

    def _require_family(self, family: str) -> str:
        self._memstore(family)  # raises ColumnFamilyNotFoundError
        return family

    def compact(self, family: Optional[str] = None) -> None:
        """Major compaction: merge all runs, apply tombstones, keep only
        the newest version of each cell.  What it drops no scan returned
        (shadowed, deleted or past the TTL horizon), and the new file
        is in place before the memstore is emptied (see :meth:`flush`):
        not a structural event."""
        targets = [family] if family else self.families
        for fam in targets:
            runs: List[List[Cell]] = [sf.cells() for sf in self._files(fam)]
            runs.append(self._memstore(fam).snapshot())
            merged = merge_sorted_runs(runs)
            survivors: List[Cell] = []
            last_coords = None
            newest_delete_ts = -1
            for cell in merged:  # newest version first per coordinates
                if self._expired(cell):
                    continue
                coords = cell.coordinates()
                if coords != last_coords:
                    last_coords = coords
                    newest_delete_ts = -1
                if cell.is_delete:
                    newest_delete_ts = max(newest_delete_ts, cell.timestamp)
                    continue
                if cell.timestamp <= newest_delete_ts:
                    continue
                if survivors and survivors[-1].coordinates() == coords:
                    continue  # older version of an already-kept cell
                survivors.append(cell)
            self._store_files[fam] = [StoreFile(survivors)] if survivors else []
            self._memstore(fam).clear()

    # ------------------------------------------------------------- reads

    def set_ttl_cutoff(self, family: str, cutoff_ts: int) -> None:
        """Expire every cell of ``family`` older than ``cutoff_ts``.

        Reads become TTL-aware immediately; storage is reclaimed at the
        next major compaction.
        """
        self._memstore(family)  # validates the family
        previous = self._ttl_cutoff.get(family, 0)
        self._ttl_cutoff[family] = max(previous, cutoff_ts)
        if self._ttl_cutoff[family] != previous:
            self._restructured()

    def _expired(self, cell: Cell) -> bool:
        return cell.timestamp < self._ttl_cutoff.get(cell.family, 0)

    def get(self, row: bytes, family: str, qualifier: bytes) -> Optional[bytes]:
        """Latest live value of one cell, or None."""
        best: Optional[Cell] = None
        delete_ts = -1
        for cell in self._iter_row(row, family):
            if cell.qualifier != qualifier or self._expired(cell):
                continue
            if cell.is_delete:
                delete_ts = max(delete_ts, cell.timestamp)
            elif best is None or cell.timestamp > best.timestamp:
                best = cell
        if best is None or best.timestamp <= delete_ts:
            return None
        return best.value

    def get_row(self, row: bytes, family: str) -> Dict[bytes, bytes]:
        """All live qualifiers of a row in a family, newest versions."""
        newest: Dict[bytes, Cell] = {}
        deletes: Dict[bytes, int] = {}
        for cell in self._iter_row(row, family):
            if self._expired(cell):
                continue
            if cell.is_delete:
                prev = deletes.get(cell.qualifier, -1)
                deletes[cell.qualifier] = max(prev, cell.timestamp)
            else:
                kept = newest.get(cell.qualifier)
                if kept is None or cell.timestamp > kept.timestamp:
                    newest[cell.qualifier] = cell
        return {
            q: c.value
            for q, c in newest.items()
            if c.timestamp > deletes.get(q, -1)
        }

    def get_versions(
        self,
        row: bytes,
        family: str,
        qualifier: bytes,
        max_versions: int = 3,
        min_ts: Optional[int] = None,
        max_ts: Optional[int] = None,
    ) -> List[Cell]:
        """Up to ``max_versions`` live versions of one cell, newest
        first, optionally restricted to versions in ``[min_ts, max_ts)``
        (HBase's ``Get.setMaxVersions`` + ``setTimeRange``)."""
        if max_versions < 1:
            raise StorageError("max_versions must be >= 1")
        delete_ts = -1
        versions: List[Cell] = []
        for cell in self._iter_row(row, family):
            if cell.qualifier != qualifier or self._expired(cell):
                continue
            if cell.is_delete:
                delete_ts = max(delete_ts, cell.timestamp)
            else:
                versions.append(cell)
        versions = [c for c in versions if c.timestamp > delete_ts]
        if min_ts is not None:
            versions = [c for c in versions if c.timestamp >= min_ts]
        if max_ts is not None:
            versions = [c for c in versions if c.timestamp < max_ts]
        # Newest first; drop duplicate timestamps (same-version rewrite).
        versions.sort(key=lambda c: -c.timestamp)
        deduped: List[Cell] = []
        for cell in versions:
            if deduped and deduped[-1].timestamp == cell.timestamp:
                continue
            deduped.append(cell)
        return deduped[:max_versions]

    def check_and_put(
        self,
        row: bytes,
        family: str,
        qualifier: bytes,
        expected: Optional[bytes],
        cell: Cell,
    ) -> bool:
        """Atomic conditional write (HBase's ``checkAndPut``).

        Applies ``cell`` only if the current value of
        ``(row, family, qualifier)`` equals ``expected`` (``None`` means
        "the cell must not exist").  Returns whether the put happened.
        The in-process store is single-writer per region, so read-then-
        write here is atomic by construction.
        """
        current = self.get(row, family, qualifier)
        if current != expected:
            return False
        self.put(cell)
        return True

    def _clamp(
        self, start_row: Optional[bytes], stop_row: Optional[bytes]
    ) -> Tuple[Optional[bytes], Optional[bytes]]:
        """``[start_row, stop_row)`` cut to the region's own range."""
        if self.start_key is not None and (
            start_row is None or start_row < self.start_key
        ):
            start_row = self.start_key
        if self.end_key is not None and (stop_row is None or stop_row > self.end_key):
            stop_row = self.end_key
        return start_row, stop_row

    def _iter_row(self, row: bytes, family: str) -> Iterator[Cell]:
        from .bytes_util import next_prefix

        stop = next_prefix(row)
        stop_row = stop if stop else None
        store = self._memstore(family)
        # Newest run first: of cells with one key and timestamp the
        # point reads keep the first they meet, the scan the newest.
        yield from (c for c in store.scan(row, stop_row) if c.row == row)
        for sf in reversed(self._files(family)):
            if not sf.may_contain_row(row):
                continue
            yield from (c for c in sf.scan(row, stop_row) if c.row == row)

    def scan(
        self,
        family: str,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
        scan_filter: Optional[ScanFilter] = None,
    ) -> Iterator[Cell]:
        """Merged, filtered scan over ``[start_row, stop_row)``.

        Emits only the newest live version of each cell, in KeyValue
        order, after applying the filter — the same contract a region
        server gives its scanners.
        """
        self.scans_served += 1
        if scan_filter is not None:
            f_start, f_stop = scan_filter.row_range()
            if f_start is not None and (start_row is None or f_start > start_row):
                start_row = f_start
            if f_stop is not None and (stop_row is None or f_stop < stop_row):
                stop_row = f_stop
        start_row, stop_row = self._clamp(start_row, stop_row)

        # Each run's slice of the range, copied when the scan starts (so
        # writes meanwhile never shift it), merged in one materialized
        # pass; the cells then stream through dedup/tombstone/filter
        # logic to the caller.  Oldest file first and the memstore
        # (newest) last: later runs win exact ties.  The memstore is
        # read first: a flush or compaction adds its file before it
        # empties the memstore, so no cell falls between the two reads.
        newest = self._memstore(family).scan(start_row, stop_row)
        runs = [
            sf.scan(start_row, stop_row)
            for sf in self._files(family)
            if sf.overlaps_range(start_row, stop_row)
        ]
        runs.append(newest)
        merged = merge_sorted_runs(runs)

        # Dedup/tombstone state is tracked with three scalars instead of
        # a coordinates() tuple per cell: the row comparison short-
        # circuits almost every iteration on row-unique workloads.
        ttl = self._ttl_cutoff
        check_ttl = bool(ttl)
        last_row = last_family = last_qualifier = None
        delete_ts = -1
        emitted = False
        for cell in merged:
            if check_ttl and cell.timestamp < ttl.get(cell.family, 0):
                continue
            if (
                cell.row != last_row
                or cell.qualifier != last_qualifier
                or cell.family != last_family
            ):
                last_row = cell.row
                last_family = cell.family
                last_qualifier = cell.qualifier
                delete_ts = -1
                emitted = False
            else:
                emitted = True
            if cell.is_delete:
                delete_ts = max(delete_ts, cell.timestamp)
                continue
            if emitted or cell.timestamp <= delete_ts:
                continue
            if scan_filter is not None and not scan_filter.accept(cell):
                # Newest version rejected by filter: do not fall back to
                # older versions — they are shadowed.
                continue
            yield cell

    def scan_cells(
        self,
        family: str,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
    ) -> Sequence[Cell]:
        """``list(self.scan(family, start_row, stop_row))``, always —
        but without the merge when the merge would change nothing.

        A key range is a contiguous slice of every sorted run.  When
        every run holding cells in the clamped range is ``plain`` (only
        puts, no two versions of a cell: nothing to shadow or collapse
        inside it), the family has no TTL horizon, and the runs' row
        ranges do not interleave (so no two runs share a row, and
        nothing shadows across them either), the merged scan would emit
        exactly the slices one after another in key order — one slice
        when a single run holds the range — so that is returned
        (store-file blocks it touches are still checksum verified).
        Anything else materializes the generic scan.  This is the read
        the coprocessor's per-friend fold uses: a friend's visits are
        one key range, and the descending-timestamp key puts visits
        written since the load wholly before the loaded ones.
        """
        if not self._ttl_cutoff.get(family):
            cells = self._plain_slices(
                family, *self._clamp(start_row, stop_row)
            )
            if cells is not None:
                self.scans_served += 1
                self.scans_sliced += 1
                return cells
        return list(self.scan(family, start_row, stop_row))

    def _plain_slices(
        self,
        family: str,
        start_row: Optional[bytes],
        stop_row: Optional[bytes],
    ) -> Optional[List[Cell]]:
        """The range's cells if every run holding any is plain and no
        two of their row ranges interleave; None when the runs have to
        be merged.  The memstore is read before the files, as in
        :meth:`scan`."""
        newest: List[Cell] = []
        store = self._memstore(family)
        if store.size_bytes:  # else not written since the load: no lock
            newest, plain = store.slice(start_row, stop_row)
            if newest and not plain:
                return None
        joined: Optional[List[Cell]] = []
        for sf in self._files(family):
            cells = sf.scan(start_row, stop_row)
            if cells:
                if not sf.plain:
                    return None
                joined = _join(joined, cells) if joined else cells
                if joined is None:
                    return None
        if newest:
            joined = _join(joined, newest) if joined else newest
        return joined

    # ------------------------------------------------------------ sizing

    def approx_rows(self, family: str) -> int:
        """Approximate live-cell count (pre-compaction upper bound)."""
        total = len(self._memstore(family))
        total += sum(len(sf) for sf in self._files(family))
        return total

    def store_file_count(self, family: str) -> int:
        return len(self._files(family))

    def __repr__(self) -> str:
        return "Region(id=%d, range=[%r, %r))" % (
            self.region_id,
            self.start_key,
            self.end_key,
        )
