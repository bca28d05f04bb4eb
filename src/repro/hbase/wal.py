"""Write-ahead logs for region durability.

HBase acknowledges a write only after it reaches the WAL; if a region
server dies, the memstore's unflushed cells are rebuilt by replaying the
log.  This module reproduces that contract in-process: the "disk" is an
append-only record list owned by the log object, which survives the
simulated crash of the region that writes to it.

Log records are framed with a sequence number and a CRC so replay can
detect (and stop at) a torn tail — the failure mode a real crash leaves
behind.

The arrangement is HBase's: ONE durable :class:`ServerWAL` per region
*server*, shared by every region placed there, each record tagged by
its region.  A region reads and writes its own records through a
:class:`RegionWALHandle` — the only log interface regions, the ingest
tier's fold watermarks and the scrubber know.  The cluster gives every
region its handle when the region is created and re-points it in the
step that changes the region's placement (DESIGN.md §10); a handle
built without a server owns a private one, which is all a region
outside a cluster needs.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import StorageError
from .cell import Cell


class WALRecord(NamedTuple):
    """One durable log entry."""

    sequence: int
    cell: Cell
    crc: int

    @staticmethod
    def checksum(sequence: int, cell: Cell) -> int:
        payload = b"|".join(
            (
                str(sequence).encode("ascii"),
                cell.row,
                cell.family.encode("utf-8"),
                cell.qualifier,
                str(cell.timestamp).encode("ascii"),
                cell.value,
                b"1" if cell.is_delete else b"0",
            )
        )
        return zlib.crc32(payload)

    def is_valid(self) -> bool:
        return self.crc == self.checksum(self.sequence, self.cell)


class ServerWAL:
    """One durable write-ahead log per region *server* (HBase-faithful).

    Every region placed on the server appends to this single log through
    its :class:`RegionWALHandle`; records are kept per region internally
    so that :meth:`split_by_region` — the master's log split during
    recovery — is a dictionary read, not a scan.

    Truncation (after a region flush) moves records into a bounded
    per-region *archive* instead of discarding them: flushed records are
    no longer needed for crash replay, but they are the only intact copy
    of a cell once a store-file block rots, so the scrubber repairs
    corrupt blocks from here.  The archive is capped per region
    (``archive_capacity`` records, oldest evicted first) so a long-lived
    server cannot hold the whole table in log form.
    """

    def __init__(
        self, node_id: Optional[int] = None, archive_capacity: int = 65536
    ) -> None:
        if archive_capacity < 0:
            raise StorageError("archive_capacity must be >= 0")
        #: None for a handle's private log (a region outside a cluster).
        self.node_id = node_id
        self.archive_capacity = archive_capacity
        self._by_region: Dict[int, List[WALRecord]] = {}
        self._archive: Dict[int, List[WALRecord]] = {}

    def append_records(
        self, region_id: int, records: Sequence[WALRecord]
    ) -> None:
        self._by_region.setdefault(region_id, []).extend(records)

    # -- read / recovery -------------------------------------------------

    def records_for(self, region_id: int) -> List[WALRecord]:
        """The region's live (not yet flushed/archived) records, in order."""
        return self._by_region.get(region_id, [])

    def archived_for(self, region_id: int) -> List[WALRecord]:
        """Flushed records retained for scrub repair, oldest first."""
        return self._archive.get(region_id, [])

    def split_by_region(self) -> Dict[int, List[WALRecord]]:
        """Log split: the live records of every region, keyed by region —
        each one's committed-but-unflushed suffix, which recovery replays
        on the region's new home."""
        return {rid: list(records)
                for rid, records in self._by_region.items() if records}

    # -- maintenance ------------------------------------------------------

    def truncate_region(self, region_id: int, sequence: int) -> int:
        """Archive the region's records with sequence <= ``sequence``.

        Returns how many records left the live log.  Only valid records
        are worth archiving — a torn record can never seed a repair.
        """
        live = self._by_region.get(region_id)
        if not live:
            return 0
        keep = [r for r in live if r.sequence > sequence]
        count = len(live) - len(keep)
        self._archive_records(
            region_id,
            [r for r in live if r.sequence <= sequence and r.is_valid()],
        )
        if keep:
            self._by_region[region_id] = keep
        else:
            del self._by_region[region_id]
        return count

    def _archive_records(
        self, region_id: int, records: Sequence[WALRecord]
    ) -> None:
        if records and self.archive_capacity:
            archive = self._archive.setdefault(region_id, [])
            archive.extend(records)
            if len(archive) > self.archive_capacity:
                del archive[: len(archive) - self.archive_capacity]

    def adopt(self, region_id: int, live: Sequence[WALRecord],
              archived: Sequence[WALRecord]) -> None:
        """Take ownership of a region's records (rehoming after a move)."""
        if live:
            self.append_records(region_id, live)
        self._archive_records(region_id, archived)

    def remove_region(self, region_id: int) -> Tuple[List[WALRecord], List[WALRecord]]:
        """Detach a region's records entirely; returns (live, archived)."""
        return (
            self._by_region.pop(region_id, []),
            self._archive.pop(region_id, []),
        )


class RegionWALHandle:
    """A region's log: its view of its server's shared :class:`ServerWAL`.

    The sequence counter is owned by the handle (per-region sequences,
    as in HBase), while durability and storage live on whichever server
    the region is currently placed on; :meth:`rehome` re-points the
    handle when the placement changes, carrying the region's records
    along.  ``truncate_to(sequence)`` retires entries at or below
    ``sequence``; regions call it after a successful full flush, because
    flushed cells no longer need replay (HBase's log-roll + archival).
    """

    def __init__(
        self, server: Optional[ServerWAL] = None, region_id: int = 0
    ) -> None:
        self._server = server if server is not None else ServerWAL()
        self.region_id = region_id
        self._next_sequence = 1
        #: Durability boundaries crossed so far: one per :meth:`append`
        #: and one per :meth:`append_batch`, however many records the
        #: batch carried.  This is the group-commit ledger — a real WAL
        #: pays one fsync per boundary, so the streaming ingest tier's
        #: 3x-writes claim is checkable as ``sync_count << len(wal)``.
        self.sync_count = 0

    @property
    def server(self) -> ServerWAL:
        return self._server

    def append(self, cell: Cell) -> int:
        """Durably record one cell; returns its sequence number.

        Each call is its own sync boundary (fsync-per-put, which group
        commit amortizes away).
        """
        return self.append_batch((cell,))[1]

    def append_batch(self, cells: Sequence[Cell]) -> Tuple[int, int]:
        """Group-commit: durably record ``cells`` under ONE sync boundary.

        Returns ``(first_sequence, last_sequence)`` of the appended run
        (``(0, 0)`` for an empty batch).  Records are framed and
        checksummed individually — replay is record-by-record and
        byte-identical to the same cells appended one at a time — but
        the batch shares a single sync, which is where a real WAL's
        throughput win lives.
        """
        if not cells:
            return (0, 0)
        first = self._next_sequence
        checksum = WALRecord.checksum
        self._server.append_records(
            self.region_id,
            [
                WALRecord(sequence, cell, checksum(sequence, cell))
                for sequence, cell in enumerate(cells, first)
            ],
        )
        self._next_sequence = first + len(cells)
        self.sync_count += 1
        return (first, self._next_sequence - 1)

    def __len__(self) -> int:
        return len(self._server.records_for(self.region_id))

    @property
    def last_sequence(self) -> int:
        return self._next_sequence - 1

    def truncate_to(self, sequence: int) -> int:
        """Retire records with sequence <= ``sequence``; returns how many."""
        return self._server.truncate_region(self.region_id, sequence)

    def replay(self) -> Iterator[Cell]:
        """Yield logged cells in order, stopping at a corrupt record.

        A torn tail (e.g. from :meth:`corrupt_tail` in tests) ends the
        replay rather than raising: everything before it is recovered,
        matching HBase's recovery semantics.
        """
        for record in self.records_after(0):
            yield record.cell

    def records_after(self, sequence: int) -> Iterator[WALRecord]:
        """Valid records with ``sequence > sequence``, in order.

        The ingest tier's applier recovery replays exactly the suffix of
        the log it had not yet folded into the incremental HotIn state —
        records at or below the fold watermark are skipped, so a replay
        can never double-count a delta.  Stops at a torn tail like
        :meth:`replay`.
        """
        for record in self._server.records_for(self.region_id):
            if not record.is_valid():
                break
            if record.sequence > sequence:
                yield record

    def corrupt_tail(self) -> None:
        """Testing hook: simulate a torn final record."""
        records = self._server.records_for(self.region_id)
        if not records:
            raise StorageError("cannot corrupt an empty log")
        last = records[-1]
        records[-1] = last._replace(crc=last.crc ^ 0xFFFF)

    def drop_torn_tail(self) -> int:
        """Discard the invalid suffix of the log; returns how many records.

        Replay already *ignores* a torn tail; dropping it additionally
        reclaims the space and lets subsequent appends produce a log
        whose every record is valid again.  The scrubber calls this when
        its WAL-tail pass finds torn records.
        """
        records = self._server.records_for(self.region_id)
        for i, record in enumerate(records):
            if not record.is_valid():
                dropped = len(records) - i
                del records[i:]
                return dropped
        return 0

    def rehome(self, new_server: ServerWAL) -> None:
        """Move this region's records (live + archived) to ``new_server``.

        The cluster calls this in the step that changes the region's
        placement — a planned move, an instantaneous failover or
        dead-server recovery alike — so a later crash of the new home
        finds the region's unflushed suffix in that server's log.
        """
        if new_server is self._server:
            return
        live, archived = self._server.remove_region(self.region_id)
        new_server.adopt(self.region_id, live, archived)
        self._server = new_server
