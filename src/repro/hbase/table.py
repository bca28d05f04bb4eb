"""Tables: a sorted directory of regions plus routing and split logic."""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..errors import (
    ColumnFamilyNotFoundError,
    RegionNotFoundError,
    StorageError,
)
from .bytes_util import SALTS, uniform_split_points, whole_salts
from .cell import Cell
from .filters import ScanFilter
from .hfile import sort_newest_first
from .region import Region


@dataclass
class TableDescriptor:
    """Schema of an HBase table: name, families, pre-split layout."""

    name: str
    families: List[str]
    num_regions: int = 1
    #: Explicit split points override ``num_regions`` uniform splits.
    split_points: Optional[List[bytes]] = None
    flush_threshold_bytes: int = 4 * 1024 * 1024
    #: Rows per region before an automatic split (0 disables).
    max_rows_per_region: int = 0

    def resolved_split_points(self) -> List[bytes]:
        if self.split_points is not None:
            points = list(self.split_points)
            if points != sorted(points):
                raise StorageError("split points must be sorted")
            return points
        if self.num_regions <= 1:
            return []
        return uniform_split_points(self.num_regions)


class HTable:
    """A range-partitioned table.

    Maintains regions sorted by start key; routes every operation to the
    owning region and merges multi-region scans in key order.
    """

    def __init__(
        self,
        descriptor: TableDescriptor,
        on_split: Optional[Callable[[], None]] = None,
    ) -> None:
        self.descriptor = descriptor
        #: Called once a split has swapped the daughters in, before they
        #: take their first cell: the owning cluster places them and
        #: gives them their logs.
        self._on_split = on_split
        points = descriptor.resolved_split_points()
        boundaries = [None] + points + [None]
        self.regions: List[Region] = [
            self._new_region(boundaries[i], boundaries[i + 1])
            for i in range(len(boundaries) - 1)
        ]
        self._reroute()

    def _new_region(
        self, start_key: Optional[bytes], end_key: Optional[bytes]
    ) -> Region:
        return Region(
            families=self.descriptor.families,
            start_key=start_key,
            end_key=end_key,
            flush_threshold_bytes=self.descriptor.flush_threshold_bytes,
        )

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def families(self) -> List[str]:
        return list(self.descriptor.families)

    # ------------------------------------------------------------ routing

    def _reroute(self) -> None:
        """Rebuild both routing tables from ``self.regions``."""
        # Start keys for bisect routing; region 0 covers (-inf, ...).
        self._start_keys: List[bytes] = [
            r.start_key for r in self.regions if r.start_key is not None
        ]
        #: Salt -> index into ``salt_owners`` of the region holding all
        #: its rows; a salt a split point cuts maps to the final None.
        #: Two bytes a salt keep the map in cache while routing friends.
        self.salt_owners: List[Optional[Region]] = self.regions + [None]
        slots = self.salt_slots = array("H", [len(self.regions)]) * SALTS
        for slot, region in enumerate(self.regions):
            whole = whole_salts(region.start_key, region.end_key)
            slots[whole.start : whole.stop] = array("H", [slot]) * len(whole)

    def region_for_row(self, row: bytes) -> Region:
        idx = bisect.bisect_right(self._start_keys, row)
        region = self.regions[idx]
        if not region.contains_row(row):
            raise RegionNotFoundError(
                "no region of %r covers row %r" % (self.name, row)
            )
        return region

    def regions_for_range(
        self, start_row: Optional[bytes], stop_row: Optional[bytes]
    ) -> List[Region]:
        """Regions intersecting ``[start_row, stop_row)`` in key order.

        O(log regions + matches) via bisect over the sorted start keys.
        Friend routing resolves a salt through ``salt_slots`` instead
        and falls back to this only for a salt a split point cuts.
        """
        lo = 0
        if start_row is not None:
            # First region whose end covers start_row: the region at
            # bisect_right(start_keys, start_row) starts at or before it.
            lo = bisect.bisect_right(self._start_keys, start_row)
        hi = len(self.regions)
        if stop_row is not None:
            # Regions from bisect_left(start_keys, stop_row) onward start
            # at or beyond stop_row and cannot intersect.  _start_keys is
            # offset by one (region 0 has start_key None), hence the +1.
            hi = bisect.bisect_left(self._start_keys, stop_row) + 1
        return self.regions[lo:hi]

    # ------------------------------------------------------------- writes

    def put(self, cell: Cell) -> None:
        region = self.region_for_row(cell.row)
        region.put(cell)
        self._maybe_split(region, cell.family)

    def bulk_load(self, cells: Iterable[Cell]) -> int:
        """Load cells, in any order, as store-file data: sorted once,
        cut at the region boundaries and handed to each owning region's
        :meth:`Region.bulk_load` — no log record, no memstore, no
        per-cell routing.  Of cells with equal keys the last wins, as
        with puts.  This is the initial load's path; streaming and
        single writes keep :meth:`put`.  Returns how many cells were
        stored.
        """
        cells = list(cells)
        families = set(map(attrgetter("family"), cells))
        undeclared = sorted(families - set(self.descriptor.families))
        if undeclared:
            raise ColumnFamilyNotFoundError(
                "family %r not declared (have %s)"
                % (undeclared[0], self.descriptor.families)
            )
        stored = 0
        for family in sorted(families):
            group = [c for c in cells if c.family == family]
            group.reverse()  # the last written is the newest
            group, keys = sort_newest_first(group)
            stored += len(group)
            lo = 0
            for region in list(self.regions):  # a split swaps daughters in
                hi = (
                    len(keys)
                    if region.end_key is None
                    else bisect.bisect_left(keys, (region.end_key,), lo)
                )
                if hi > lo:
                    region.bulk_load(family, group[lo:hi])
                    self._maybe_split(region, family)
                lo = hi
        return stored

    def delete(self, row: bytes, family: str, qualifier: bytes, timestamp: int) -> None:
        self.region_for_row(row).delete(row, family, qualifier, timestamp)

    def check_and_put(
        self,
        row: bytes,
        family: str,
        qualifier: bytes,
        expected: Optional[bytes],
        cell: Cell,
    ) -> bool:
        """Atomic conditional write, routed to the owning region."""
        return self.region_for_row(row).check_and_put(
            row, family, qualifier, expected, cell
        )

    def set_ttl_cutoff(self, family: str, cutoff_ts: int) -> None:
        """Apply a TTL horizon to every region of the table."""
        for region in self.regions:
            region.set_ttl_cutoff(family, cutoff_ts)

    def flush(self) -> None:
        for region in self.regions:
            region.flush()

    def compact(self) -> None:
        for region in self.regions:
            region.compact()

    # -------------------------------------------------------------- reads

    def get(self, row: bytes, family: str, qualifier: bytes) -> Optional[bytes]:
        return self.region_for_row(row).get(row, family, qualifier)

    def get_row(self, row: bytes, family: str) -> Dict[bytes, bytes]:
        return self.region_for_row(row).get_row(row, family)

    def get_versions(
        self,
        row: bytes,
        family: str,
        qualifier: bytes,
        max_versions: int = 3,
        min_ts: Optional[int] = None,
        max_ts: Optional[int] = None,
    ) -> List[Cell]:
        """Versioned read, routed to the owning region."""
        return self.region_for_row(row).get_versions(
            row, family, qualifier, max_versions, min_ts, max_ts
        )

    def scan(
        self,
        family: str,
        start_row: Optional[bytes] = None,
        stop_row: Optional[bytes] = None,
        scan_filter: Optional[ScanFilter] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Cell]:
        """Scan across all intersecting regions in key order.

        ``limit`` stops after that many cells — regions are visited in
        key order, so a limited scan touches only the leading regions
        (HBase's ``setLimit`` / paginated scanner).
        """
        emitted = 0
        for region in self.regions_for_range(start_row, stop_row):
            for cell in region.scan(family, start_row, stop_row, scan_filter):
                yield cell
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

    # -------------------------------------------------------------- split

    def _maybe_split(self, region: Region, family: str) -> None:
        limit = self.descriptor.max_rows_per_region
        if limit <= 0 or region.approx_rows(family) < limit:
            return
        self.split_region(region)

    def split_region(self, region: Region) -> None:
        """Split a region at its median row key (HBase's midpoint split).

        All of the region's cells are re-distributed into two daughters;
        a no-op if the region holds fewer than two distinct rows.
        """
        rows = set()
        cells: List[Cell] = []
        for fam in self.descriptor.families:
            for cell in region.scan(fam):
                rows.add(cell.row)
                cells.append(cell)
        if len(rows) < 2:
            return
        sorted_rows = sorted(rows)
        mid = sorted_rows[len(sorted_rows) // 2]
        if mid == sorted_rows[0]:
            return  # degenerate: all mass on the first key

        left = self._new_region(region.start_key, mid)
        right = self._new_region(mid, region.end_key)
        idx = self.regions.index(region)
        self.regions[idx : idx + 1] = [left, right]
        self._reroute()
        if self._on_split is not None:
            self._on_split()
        for cell in cells:
            (left if cell.row < mid else right).put(cell)

    # ------------------------------------------------------------ stats

    def region_ids(self) -> List[int]:
        return [r.region_id for r in self.regions]

    def total_rows(self, family: str) -> int:
        return sum(r.approx_rows(family) for r in self.regions)

    def __repr__(self) -> str:
        return "HTable(%r, regions=%d)" % (self.name, len(self.regions))
