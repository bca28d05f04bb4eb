"""Immutable sorted store files — the on-disk half of the LSM tree.

Store files carry per-block CRC32 checksums (blocks of
:data:`BLOCK_CELLS` cells, as HFile checksums 64 KB chunks): every scan
verifies the blocks it touches before serving a single cell, so a
rotted block raises :class:`~repro.errors.ChecksumError` instead of
silently returning wrong bytes.  The scheduled scrubber uses
:meth:`StoreFile.verify` to find corrupt blocks proactively and either
rebuilds them from the WAL archive (:meth:`StoreFile.rebuild_block`,
accepted only when the rebuilt bytes reproduce the original checksum)
or quarantines them (:meth:`StoreFile.quarantine_block`) so reads
degrade loudly rather than lie.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

from bisect import bisect_left
from itertools import chain, compress, islice
from operator import attrgetter, eq, gt, ne
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ChecksumError, StorageError
from .cell import Cell, same_coordinates

#: Cells per checksummed block.  Small enough that a single flipped bit
#: quarantines little data, large enough that checksum bookkeeping is
#: negligible next to the cells themselves.
BLOCK_CELLS = 64


def _cell_payload(cell: Cell) -> bytes:
    return b"%b|%b|%b|%d|%b|%d" % (
        cell.row,
        cell.family.encode("utf-8"),
        cell.qualifier,
        cell.timestamp,
        cell.value,
        cell.is_delete,
    )


def _block_crc(cells: Sequence[Cell]) -> int:
    return zlib.crc32(b"".join(map(_cell_payload, cells)))


@dataclass
class _Block:
    """Checksum metadata for one run of cells inside a store file."""

    lo: int            # index of the block's first cell in _cells
    count: int         # cells in the block
    crc: int           # CRC32 over the cells' payloads at write time
    first_key: tuple   # sort_key of the first cell
    last_key: tuple    # sort_key of the last cell
    verified: bool = False     # lazily set by the first read that checks
    quarantined: bool = False  # scrubber gave up: serve loud errors


class _BloomFilter:
    """A small row-key Bloom filter, as HFiles carry.

    Sized for ~1% false positives at the construction cardinality; lets
    point gets skip files that cannot contain the row.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes")

    def __init__(self, expected_items: int) -> None:
        expected_items = max(1, expected_items)
        # ~9.6 bits/key gives ~1% FP with 7 hash functions.
        self._num_bits = max(64, expected_items * 10)
        self._num_hashes = 7
        self._bits = bytearray((self._num_bits + 7) // 8)

    def _positions(self, key: bytes) -> Iterator[int]:
        h1 = hash(key)
        h2 = hash(key + b"\x00salt")
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._num_bits

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Set every key's :meth:`_positions`.  Building a store file
        adds each of its rows, so the arithmetic progression is walked
        in place — a step and a wrap per position — instead of through
        a generator per key; the bits set are the same."""
        bits = self._bits
        num_bits = self._num_bits
        extra_hashes = range(self._num_hashes - 1)
        for key in keys:
            pos = hash(key) % num_bits
            step = hash(key + b"\x00salt") % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            for _ in extra_hashes:
                pos += step
                if pos >= num_bits:
                    pos -= num_bits
                bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, key: bytes) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key)
        )


class StoreFile:
    """An immutable, sorted run of cells produced by a memstore flush.

    Carries a row-key Bloom filter (built by the first point read) and
    first/last row metadata so the read path can skip irrelevant files,
    exactly as HFile does.

    ``plain`` is fixed at write time: true when the file holds only
    puts and no two cells share ``(row, family, qualifier)``, so a scan
    of it alone needs no version or tombstone resolution (see
    :meth:`~repro.hbase.region.Region.scan_cells`).
    """

    _next_id = 0

    def __init__(
        self,
        cells: Sequence[Cell],
        block_cells: int = BLOCK_CELLS,
        keys: Optional[List[tuple]] = None,
    ) -> None:
        """``keys``, when the writer already has them (a merge sorted
        by them), must be ``[c.sort_key() for c in cells]``; they are
        checked for order like computed ones."""
        if block_cells < 1:
            raise StorageError("block_cells must be >= 1")
        cells = list(cells)
        if keys is None:
            keys = list(map(Cell.sort_key, cells))
        elif len(keys) != len(cells):
            raise StorageError("store file needs one sort key per cell")
        if any(map(gt, keys, islice(keys, 1, None))):
            raise StorageError("store file cells must arrive sorted")
        self._cells: List[Cell] = cells
        #: The row column: what range scans bisect.
        self._rows: List[bytes] = [c.row for c in cells]
        rows = self._rows
        # Cells sharing coordinates share a row and sort adjacent: a
        # file of distinct rows (a visits file) settles on the bytes.
        self.plain = not any(map(attrgetter("is_delete"), cells)) and not (
            any(map(eq, rows, islice(rows, 1, None)))
            and any(map(same_coordinates, keys, islice(keys, 1, None)))
        )
        #: Built by the first point read (:meth:`may_contain_row`):
        #: range scans, all the personalized path does, never consult it.
        self._bloom: Optional[_BloomFilter] = None
        self.first_row: Optional[bytes] = cells[0].row if cells else None
        self.last_row: Optional[bytes] = cells[-1].row if cells else None
        self._block_cells = block_cells
        self._blocks: List[_Block] = []
        for lo in range(0, len(cells), block_cells):
            chunk = cells[lo : lo + block_cells]
            # Fresh key tuples, not two of ``keys``: a survivor per 64
            # would pin the allocator pools of the whole batch, and what
            # queries allocate later would land scattered among them.
            self._blocks.append(
                _Block(lo=lo, count=len(chunk), crc=_block_crc(chunk),
                       first_key=chunk[0].sort_key(),
                       last_key=chunk[-1].sort_key())
            )
        StoreFile._next_id += 1
        self.file_id = StoreFile._next_id

    # -- checksum machinery ----------------------------------------------

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def block_ranges(self) -> List[Tuple[tuple, tuple]]:
        """``(first_key, last_key)`` of every block, in file order."""
        return [(b.first_key, b.last_key) for b in self._blocks]

    def _block_ok(self, block: _Block) -> bool:
        cells = self._cells[block.lo : block.lo + block.count]
        return len(cells) == block.count and _block_crc(cells) == block.crc

    def _check_block(self, block: _Block) -> None:
        """Verify one block before its cells are served (memoized)."""
        if block.quarantined:
            raise ChecksumError(
                "store file %d: block at cell %d is quarantined"
                % (self.file_id, block.lo)
            )
        if block.verified:
            return
        if not self._block_ok(block):
            raise ChecksumError(
                "store file %d: block at cell %d failed checksum"
                % (self.file_id, block.lo)
            )
        block.verified = True

    def _check_span(self, lo: int, hi: int) -> None:
        """Verify every block overlapping the cell index span [lo, hi).

        A span reaching the current end of the file also verifies the
        final block even when its cells are gone — a torn tail shrinks
        ``_cells``, and an end-of-file scan must fail loudly rather than
        silently return a shortened file.
        """
        if lo >= hi:
            return
        first = lo // self._block_cells
        if hi >= len(self._cells):
            last = len(self._blocks) - 1
        else:
            last = (hi - 1) // self._block_cells
        for block in self._blocks[first : last + 1]:
            if not block.verified:  # a quarantined block never is
                self._check_block(block)

    def verify(self) -> List[int]:
        """Scrub pass: re-checksum every block, returning corrupt indices.

        Unlike the read path this never raises — the scrubber wants the
        full damage report, not the first failure.  Quarantined blocks
        are reported too (they are still corrupt; they are just already
        known to be).  Intact blocks are memoized as verified so later
        reads skip the re-hash.
        """
        corrupt = []
        for i, block in enumerate(self._blocks):
            if block.quarantined or not self._block_ok(block):
                block.verified = False
                corrupt.append(i)
            else:
                block.verified = True
        return corrupt

    def rebuild_block(self, index: int, cells: Sequence[Cell]) -> bool:
        """Replace a corrupt block with ``cells`` rebuilt from the WAL.

        The repair is accepted only when the rebuilt run reproduces the
        checksum recorded at write time — a wrong or partial candidate
        set can therefore never be installed as a \"repair\".  Returns
        ``True`` on success.
        """
        block = self._blocks[index]
        cells = list(cells)
        if len(cells) != block.count or _block_crc(cells) != block.crc:
            return False
        self._cells[block.lo : block.lo + block.count] = cells
        self._rows[block.lo : block.lo + block.count] = [
            c.row for c in cells
        ]
        block.verified = True
        block.quarantined = False
        return True

    def quarantine_block(self, index: int) -> None:
        """Mark an unrepairable block: reads touching it fail loudly."""
        block = self._blocks[index]
        block.quarantined = True
        block.verified = False

    # -- corruption injection (testing / fault injector) ------------------

    def corrupt_block(self, index: int) -> None:
        """Flip bits in one cell of a block, leaving the checksum stale.

        The damaged cell is a *copy* with its value bit-flipped — the
        original ``Cell`` object is never mutated, because WAL records
        may hold the same object and the WAL must stay an intact repair
        source.
        """
        block = self._blocks[index]
        victim = self._cells[block.lo]
        flipped = bytes(b ^ 0xFF for b in victim.value) or b"\xff"
        self._cells[block.lo] = dataclasses.replace(victim, value=flipped)
        block.verified = False

    def tear_tail(self, drop: int = 1) -> int:
        """Truncate the file mid-block (a torn write): drop final cells.

        The last block's recorded count/CRC no longer match, so reads
        of that block fail checksum until the scrubber repairs it from
        the WAL.  Returns how many cells were dropped.
        """
        if not self._cells:
            return 0
        self._bloom_filter()  # over the rows as written, not as torn
        drop = min(drop, len(self._cells))
        del self._cells[len(self._cells) - drop :]
        del self._rows[len(self._rows) - drop :]
        if self._blocks:
            self._blocks[-1].verified = False
        return drop

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def size_bytes(self) -> int:
        return sum(c.approx_size() for c in self._cells)

    def _bloom_filter(self) -> _BloomFilter:
        """The row-key Bloom filter over the rows the file was written
        with (built on first use)."""
        bloom = self._bloom
        if bloom is None:
            bloom = _BloomFilter(len(self._rows))
            bloom.add_all(self._rows)
            self._bloom = bloom
        return bloom

    def may_contain_row(self, row: bytes) -> bool:
        """Cheap pre-check combining key-range and Bloom filter."""
        if self.first_row is None:
            return False
        if row < self.first_row or (self.last_row is not None and row > self.last_row):
            return False
        return self._bloom_filter().might_contain(row)

    def overlaps_range(
        self, start_row: Optional[bytes], stop_row: Optional[bytes]
    ) -> bool:
        if self.first_row is None:
            return False
        if stop_row is not None and self.first_row >= stop_row:
            return False
        if start_row is not None and self.last_row is not None:
            if self.last_row < start_row:
                return False
        return True

    def scan(
        self,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
    ) -> List[Cell]:
        """The cells with ``start_row <= row < stop_row``, in order (a
        copied slice).

        Both range ends resolve by binary search on the row column.
        Every block the range touches is checksum-verified (memoized)
        before a cell is served; a corrupt or quarantined block raises
        :class:`~repro.errors.ChecksumError` rather than serving damaged
        bytes.
        """
        rows = self._rows
        lo = 0 if start_row is None else bisect_left(rows, start_row)
        hi = len(rows) if stop_row is None else bisect_left(rows, stop_row, lo)
        if lo < hi:
            self._check_span(lo, hi)
        return self._cells[lo:hi]

    def cells(self) -> List[Cell]:
        self._check_span(0, len(self._cells))
        return list(self._cells)


def sort_newest_first(cells: List[Cell]) -> Tuple[List[Cell], List[tuple]]:
    """Cells listed *newest first* (in any key order) as ``(cells,
    their sort keys)`` in KeyValue order with one cell per key, the
    newest.

    The sort is stable, so of equal keys the newest cell comes first
    and the rest are dropped.  It is the whole of every materialized
    merge here: Timsort finds sorted runs inside its input again, so k
    concatenated runs of n cells in all cost O(n log k) comparisons, in
    C, where a heap merge pays a Python heap operation per cell.
    """
    keys = list(map(Cell.sort_key, cells))
    order = sorted(range(len(cells)), key=keys.__getitem__)
    cells = [cells[i] for i in order]
    keys = [keys[i] for i in order]
    if any(map(eq, keys, islice(keys, 1, None))):
        first_of_key = [True]
        first_of_key.extend(map(ne, keys, islice(keys, 1, None)))
        cells = list(compress(cells, first_of_key))
        keys = list(compress(keys, first_of_key))
    return cells, keys


def merge_keyed_runs(
    runs: Sequence[Sequence[Cell]],
) -> Tuple[List[Cell], List[tuple]]:
    """The materialized merge every read and rewrite of several runs
    shares (a scan, sealing bulk-loaded runs, minor and major
    compaction): sorted runs, *oldest first*, into ``(cells, their sort
    keys)`` with one cell per key, taken from the newest run that holds
    it."""
    return sort_newest_first(list(chain.from_iterable(reversed(runs))))


def merge_sorted_runs(runs: Sequence[Sequence[Cell]]) -> List[Cell]:
    """Just the cells of :func:`merge_keyed_runs` (later runs are newer
    and win exact ties) — what a scan reads; a lone non-empty run is
    returned as it is."""
    live = [run for run in runs if run]
    if len(live) <= 1:
        return list(live[0]) if live else []
    return merge_keyed_runs(live)[0]
