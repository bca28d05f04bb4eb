"""The in-memory, sorted write buffer of a region's column family."""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .cell import Cell, same_coordinates

#: Absorb/rebuild crossover of a consolidation: a de-duplicated pending
#: batch of at most this many cells is inserted into the main run in
#: place, a larger one rebuilds the run in one pass.  A cell count, not
#: a share of the run: both sides grow with the run (each insert moves
#: half of it, a rebuild copies all of it), so they break even at the
#: same batch size whatever the run's length:
#: ``benchmarks/bench_ingest.py::test_memstore_absorb_crossover`` puts
#: it between 128 and 256 cells on a run of 6,000 and at about 128 on
#: a run of 24,000 (table in DESIGN.md §9).
ABSORB_MAX_CELLS = 128


class MemStore:
    """Sorted buffer of freshly-written cells.

    Single puts insert into a list kept sorted by KeyValue order via
    ``bisect`` — O(log n) search plus O(n) shift.  Batched puts
    (:meth:`put_batch`, the ingest tier's group commit) do NOT pay that
    per-cell shift on the write path: each batch lands as its own
    *segment*, and segments merge into the main run lazily, on the
    first read that needs total order.  A small merge (a few ingest
    batches between two queries) is absorbed in place — ``k`` bisects
    and ``k`` short ``memmove``s, no new list — and a large one (a
    write burst of B batches) rebuilds the run in one O(n) pass instead
    of B of them: the in-memory analogue of LSM minor compaction.

    **Snapshot rule.**  Both merges and :meth:`put` mutate the run's
    lists, so no read ever hands out an iterator over them: :meth:`scan`
    returns a copied slice, and a scan in progress sees exactly the
    cells present when it started, each once, whatever is written
    meanwhile.

    ``plain`` is true while the consolidated run holds only puts and no
    two cells share ``(row, family, qualifier)`` — then a scan of it
    needs no version or tombstone resolution and a slice *is* the
    answer.  It only ever falls, until :meth:`clear` resets it.

    Thread-safety: a lock guards the segment list and the main run, so
    concurrent scans (queries) and batched writes (ingest appliers)
    never observe a half-merged buffer.
    """

    def __init__(self, flush_threshold_bytes: int = 4 * 1024 * 1024) -> None:
        # The main run, as three parallel columns.
        self._cells: List[Cell] = []
        self._keys: List[tuple] = []
        self._rows: List[bytes] = []
        #: Pending segments from batched puts, newest last, each in
        #: arrival order.  Later cells win over earlier ones (and over
        #: the main run) on equal keys; sorting is consolidation's job.
        self._pending: List[List[Cell]] = []
        self._size_bytes = 0
        self._plain = True
        self._lock = threading.Lock()
        self.flush_threshold_bytes = flush_threshold_bytes

    def __len__(self) -> int:
        with self._lock:
            self._consolidate()
            return len(self._cells)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def should_flush(self) -> bool:
        return self._size_bytes >= self.flush_threshold_bytes

    @property
    def plain(self) -> bool:
        with self._lock:
            self._consolidate()
            return self._plain

    def put(self, cell: Cell) -> None:
        """Insert a cell, keeping KeyValue order.

        A cell with identical coordinates *and* timestamp replaces the
        previous one (HBase's last-write-wins for same-version puts).
        """
        with self._lock:
            self._size_bytes += cell.approx_size()
            if self._pending:
                # Sequencing against un-merged batches: land as a
                # 1-cell segment so last-write-wins order is preserved.
                self._pending.append([cell])
                return
            key = cell.sort_key()
            self._place(bisect_left(self._keys, key), key, cell)

    def put_batch(self, cells: Sequence[Cell]) -> None:
        """Insert many cells as one sorted segment.

        Semantically identical to calling :meth:`put` per cell in order
        (same-key cells replace, later entries win), but the write path
        pays only an O(k) append: sorting and merging are deferred to
        one consolidation on the next ordered read.  Total work is
        conserved — it moves off the write-burst hot path, which is the
        in-memory half of the ingest tier's group-commit throughput win.
        """
        if not cells:
            return
        if len(cells) == 1:
            self.put(cells[0])  # handles both pending and in-place paths
            return
        with self._lock:
            self._pending.append(list(cells))
            # Approximate until consolidation: a key shadowing an older
            # copy counts twice, erring toward flushing sooner.
            self._size_bytes += sum(cell.approx_size() for cell in cells)

    def _place(self, idx: int, key: tuple, cell: Cell) -> None:
        """Land ``cell`` at its sorted position ``idx`` of the main run
        (lock held, its size already counted): replace the cell with an
        equal key, else insert."""
        keys, cells, rows = self._keys, self._cells, self._rows
        n = len(keys)
        if idx < n and keys[idx] == key:
            self._size_bytes -= cells[idx].approx_size()
            cells[idx] = cell
            if cell.is_delete:
                self._plain = False
            return
        row = cell.row
        # Row first, on the bytes column: on a row-unique table it
        # settles both neighbours without a call.
        if self._plain and (
            cell.is_delete
            or (
                idx
                and rows[idx - 1] == row
                and same_coordinates(keys[idx - 1], key)
            )
            or (
                idx < n
                and rows[idx] == row
                and same_coordinates(keys[idx], key)
            )
        ):
            self._plain = False
        keys.insert(idx, key)
        cells.insert(idx, cell)
        rows.insert(idx, row)

    def _consolidate(self) -> None:
        """Merge pending segments into the main run (lock held).

        Segments union into a single last-wins sorted batch (the sort
        is stable, so equal keys keep arrival order; Timsort over
        concatenated sorted runs is near linear).  A small batch is
        then placed cell by cell; a larger one merges with the run in
        one slice-copy sweep — the O(n) every batched write deferred,
        paid once.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        keyed = [(cell.sort_key(), cell) for seg in pending for cell in seg]
        keyed.sort(key=itemgetter(0))
        batch: List[Tuple[tuple, Cell]] = []
        for entry in keyed:
            if batch and batch[-1][0] == entry[0]:
                self._size_bytes -= batch[-1][1].approx_size()
                if batch[-1][1].is_delete:
                    # Written one at a time, the tombstone would have
                    # lowered the flag before being overwritten.
                    self._plain = False
                batch[-1] = entry
            else:
                batch.append(entry)
        if len(batch) <= ABSORB_MAX_CELLS:
            keys = self._keys
            idx = 0
            for key, cell in batch:
                idx = bisect_left(keys, key, idx)
                self._place(idx, key, cell)
        else:
            self._rebuild(batch)

    def _rebuild(self, batch: List[Tuple[tuple, Cell]]) -> None:
        """Two-pointer merge of a sorted, de-duplicated batch with the
        main run into fresh lists (lock held)."""
        old_keys, old_cells, old_rows = self._keys, self._cells, self._rows
        new_keys: List[tuple] = []
        new_cells: List[Cell] = []
        new_rows: List[bytes] = []
        n = len(old_keys)
        oi = 0
        plain = self._plain
        for key, cell in batch:
            # Copy existing entries below the incoming key in one slice.
            j = bisect_left(old_keys, key, oi)
            if j > oi:
                new_keys.extend(old_keys[oi:j])
                new_cells.extend(old_cells[oi:j])
                new_rows.extend(old_rows[oi:j])
                oi = j
            if oi < n and old_keys[oi] == key:
                self._size_bytes -= old_cells[oi].approx_size()
                oi += 1  # replaced by the incoming cell
            row = cell.row
            # The same neighbour test as _place, on the merged order.
            if plain and (
                cell.is_delete
                or (
                    new_rows
                    and new_rows[-1] == row
                    and same_coordinates(new_keys[-1], key)
                )
                or (
                    oi < n
                    and old_rows[oi] == row
                    and same_coordinates(old_keys[oi], key)
                )
            ):
                plain = False
            new_keys.append(key)
            new_cells.append(cell)
            new_rows.append(row)
        if oi < n:
            new_keys.extend(old_keys[oi:])
            new_cells.extend(old_cells[oi:])
            new_rows.extend(old_rows[oi:])
        self._keys = new_keys
        self._cells = new_cells
        self._rows = new_rows
        self._plain = plain

    def slice(
        self,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
    ) -> Tuple[List[Cell], bool]:
        """``(cells, plain)``: a copy of the cells with ``start_row <=
        row < stop_row`` in order, and whether the run was plain when
        they were copied (one lock hold, so a concurrent :meth:`clear`
        cannot pair old cells with a reset flag).

        Both ends resolve by binary search on the row column, so the
        read never touches (or compares against) cells outside the
        range.
        """
        with self._lock:
            self._consolidate()
            rows = self._rows
            lo = 0 if start_row is None else bisect_left(rows, start_row)
            hi = (
                len(rows)
                if stop_row is None
                else bisect_left(rows, stop_row, lo)
            )
            return self._cells[lo:hi], self._plain

    def scan(
        self,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
    ) -> List[Cell]:
        """The cells with ``start_row <= row < stop_row``, in order."""
        return self.slice(start_row, stop_row)[0]

    def snapshot(self) -> List[Cell]:
        """The sorted cell list, for flushing into a store file."""
        return self.slice()[0]

    def clear(self) -> None:
        with self._lock:
            self._cells = []
            self._keys = []
            self._rows = []
            self._pending = []
            self._size_bytes = 0
            self._plain = True
