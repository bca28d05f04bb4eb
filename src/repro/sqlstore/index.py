"""Secondary indexes: hash, ordered, and spatial.

The ordered index plays PostgreSQL's B-tree role (equality + range), the
hash index serves pure equality, and the spatial index wraps the R-tree
from :mod:`repro.geo` for bounding-box containment — the GiST stand-in.
All indexes map key values to heap row ids.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import IndexError_
from ..geo import BoundingBox, GeoPoint, RTree


class HashIndex:
    """Equality-only index: value -> set of row ids."""

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._map: Dict[Any, Set[int]] = {}

    def insert(self, key: Any, rid: int) -> None:
        self._map.setdefault(self._hashable(key), set()).add(rid)

    def insert_many(self, items: Iterable[Tuple[Any, int]]) -> None:
        """A batch of ``(key, rid)`` pairs; NULL keys are not indexed."""
        for key, rid in items:
            if key is not None:
                self.insert(key, rid)

    def remove(self, key: Any, rid: int) -> None:
        key = self._hashable(key)
        rids = self._map.get(key)
        if rids is not None:
            rids.discard(rid)
            if not rids:
                del self._map[key]

    def lookup(self, key: Any) -> Set[int]:
        return set(self._map.get(self._hashable(key), ()))

    def lookup_many(self, keys) -> Set[int]:
        out: Set[int] = set()
        for key in keys:
            out |= self.lookup(key)
        return out

    @staticmethod
    def _hashable(key: Any) -> Any:
        if isinstance(key, list):
            return tuple(key)
        return key

    def __len__(self) -> int:
        return sum(len(v) for v in self._map.values())


class OrderedIndex:
    """Sorted (key, rid) pairs: equality *and* range lookups.

    Implemented over ``bisect`` rather than a hand-rolled B-tree: the
    asymptotics match (O(log n) search), inserts are O(n) shifts but the
    POI/blog tables this index serves have "low insert/update rates"
    (paper Section 2.1), so the simpler structure is the honest choice.
    """

    kind = "ordered"

    def __init__(self, column: str) -> None:
        self.column = column
        self._pairs: List[Tuple[Any, int]] = []

    def insert(self, key: Any, rid: int) -> None:
        if key is None:
            return  # NULLs are not indexed, as in PostgreSQL b-trees
        bisect.insort(self._pairs, (key, rid))

    def insert_many(self, items: Iterable[Tuple[Any, int]]) -> None:
        """A batch lands with one sort instead of a shift per pair."""
        self._pairs.extend(item for item in items if item[0] is not None)
        self._pairs.sort()

    def remove(self, key: Any, rid: int) -> None:
        if key is None:
            return
        idx = bisect.bisect_left(self._pairs, (key, rid))
        if idx < len(self._pairs) and self._pairs[idx] == (key, rid):
            del self._pairs[idx]

    def lookup(self, key: Any) -> Set[int]:
        lo = bisect.bisect_left(self._pairs, (key,))
        out: Set[int] = set()
        for i in range(lo, len(self._pairs)):
            k, rid = self._pairs[i]
            if k != key:
                break
            out.add(rid)
        return out

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = False,
    ) -> Set[int]:
        """Row ids with keys in the given (half-open by default) range."""
        if low is None:
            lo = 0
        else:
            lo = (
                bisect.bisect_left(self._pairs, (low,))
                if include_low
                else bisect.bisect_right(self._pairs, (low, float("inf")))
            )
        out: Set[int] = set()
        for i in range(lo, len(self._pairs)):
            k, rid = self._pairs[i]
            if high is not None:
                if include_high:
                    if k > high:
                        break
                elif k >= high:
                    break
            out.add(rid)
        return out

    def iter_sorted(self, reverse: bool = False) -> Iterator[Tuple[Any, int]]:
        """(key, rid) pairs in key order — supports ORDER BY pushdown."""
        return iter(reversed(self._pairs)) if reverse else iter(self._pairs)

    def min_key(self) -> Any:
        if not self._pairs:
            raise IndexError_("index on %r is empty" % self.column)
        return self._pairs[0][0]

    def max_key(self) -> Any:
        if not self._pairs:
            raise IndexError_("index on %r is empty" % self.column)
        return self._pairs[-1][0]

    def __len__(self) -> int:
        return len(self._pairs)


class SpatialIndex:
    """R-tree over a (lat_column, lon_column) point pair."""

    kind = "spatial"

    def __init__(self, lat_column: str, lon_column: str) -> None:
        self.lat_column = lat_column
        self.lon_column = lon_column
        self.column = "%s,%s" % (lat_column, lon_column)
        self._tree = RTree(max_entries=16)

    def insert(self, key: Tuple[float, float], rid: int) -> None:
        lat, lon = key
        self._tree.insert_point(GeoPoint(lat, lon), rid)

    def insert_many(
        self, items: Iterable[Tuple[Tuple[float, float], int]]
    ) -> None:
        """A batch re-packs the tree (:meth:`RTree.packed`) around what
        it held plus the new points (a NULL coordinate is not indexed);
        ``search_bbox`` answers a set, so the tree's shape is not
        observable."""
        boxes = self._tree.items()
        boxes.extend(
            (BoundingBox(lat, lon, lat, lon), rid)
            for (lat, lon), rid in items
            if lat is not None and lon is not None
        )
        self._tree = RTree.packed(boxes, max_entries=16)

    def remove(self, key: Tuple[float, float], rid: int) -> None:
        lat, lon = key
        self._tree.delete(BoundingBox(lat, lon, lat, lon), rid)

    def search_bbox(self, bbox: BoundingBox) -> Set[int]:
        return set(self._tree.search(bbox))

    def __len__(self) -> int:
        return len(self._tree)
