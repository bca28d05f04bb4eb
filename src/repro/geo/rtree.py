"""A quadratic-split R-tree over geographic bounding boxes.

PostgreSQL answers MoDisSENSE's non-personalized POI queries through its
spatial (GiST) indexes; this R-tree plays that role inside
``repro.sqlstore``.  It stores ``(BoundingBox, value)`` pairs — points are
stored as degenerate boxes — and supports box-intersection search and
deletion.  A batch is packed bottom-up (:meth:`RTree.packed`,
Sort-Tile-Recursive) instead of inserted one by one.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Tuple

from ..errors import ValidationError
from .bbox import BoundingBox
from .point import GeoPoint


class _Entry:
    """A leaf payload: a rectangle plus the caller's value."""

    __slots__ = ("box", "value")

    def __init__(self, box: BoundingBox, value: Any) -> None:
        self.box = box
        self.value = value


class _Node:
    """An R-tree node; leaves hold entries, internal nodes hold children."""

    __slots__ = ("leaf", "entries", "children", "box")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: List[_Entry] = []
        self.children: List["_Node"] = []
        self.box: Optional[BoundingBox] = None

    def recompute_box(self) -> None:
        boxes = (
            [e.box for e in self.entries]
            if self.leaf
            else [c.box for c in self.children if c.box is not None]
        )
        if not boxes:
            self.box = None
            return
        self.box = BoundingBox(
            min(b.min_lat for b in boxes),
            min(b.min_lon for b in boxes),
            max(b.max_lat for b in boxes),
            max(b.max_lon for b in boxes),
        )


def _enlargement(box: BoundingBox, add: BoundingBox) -> float:
    """Area growth of ``box`` if it had to cover ``add`` too."""
    merged = box.union(add)
    return merged.area_deg2 - box.area_deg2


def _str_tiles(items: List[Any], capacity: int) -> List[List[Any]]:
    """One STR level: ``items`` (entries or nodes, anything with a
    ``box``) grouped into runs of at most ``capacity`` spatial
    neighbours."""
    slices = math.ceil(math.sqrt(math.ceil(len(items) / capacity)))
    per_slice = slices * capacity
    items = sorted(items, key=lambda item: item.box.min_lat + item.box.max_lat)
    tiles = []
    for lo in range(0, len(items), per_slice):
        tile = sorted(
            items[lo : lo + per_slice],
            key=lambda item: item.box.min_lon + item.box.max_lon,
        )
        tiles.extend(
            tile[i : i + capacity] for i in range(0, len(tile), capacity)
        )
    return tiles


class RTree:
    """An in-memory R-tree with quadratic node splitting.

    Parameters
    ----------
    max_entries:
        Node fan-out before a split; the minimum fill is ``max_entries//2``.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 4:
            raise ValidationError("max_entries must be >= 4")
        self._max = max_entries
        self._min = max_entries // 2
        self._root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # --------------------------------------------------------------- pack

    @classmethod
    def packed(
        cls, items: Iterable[Tuple[BoundingBox, Any]], max_entries: int = 16
    ) -> "RTree":
        """A tree over ``(box, value)`` pairs built bottom-up by
        Sort-Tile-Recursive packing (Leutenegger et al.): sort by
        latitude, cut into vertical slices of ~sqrt(nodes) nodes each,
        sort each slice by longitude, fill nodes to ``max_entries`` —
        one level at a time.  O(n log n) with one box built per node,
        where n inserts pay a descent and ~n/8 quadratic splits; the
        result is an ordinary tree that inserts and deletes as usual.
        """
        tree = cls(max_entries)
        level: List[Any] = [_Entry(box, value) for box, value in items]
        if not level:
            return tree
        tree._size = len(level)
        leaf = True
        while leaf or len(level) > 1:
            nodes = []
            for group in _str_tiles(level, max_entries):
                node = _Node(leaf=leaf)
                if leaf:
                    node.entries = group
                else:
                    node.children = group
                node.recompute_box()
                nodes.append(node)
            level = nodes
            leaf = False
        tree._root = level[0]
        return tree

    # ------------------------------------------------------------- insert

    def insert(self, box: BoundingBox, value: Any) -> None:
        """Insert a rectangle/value pair."""
        entry = _Entry(box, value)
        split = self._insert(self._root, entry)
        if split is not None:
            # Root was split: grow the tree by one level.
            old_root = self._root
            new_root = _Node(leaf=False)
            new_root.children = [old_root, split]
            new_root.recompute_box()
            self._root = new_root
        self._size += 1

    def insert_point(self, point: GeoPoint, value: Any) -> None:
        """Insert a point as a degenerate rectangle."""
        self.insert(
            BoundingBox(point.lat, point.lon, point.lat, point.lon), value
        )

    def _insert(self, node: _Node, entry: _Entry) -> Optional[_Node]:
        if node.leaf:
            node.entries.append(entry)
            node.recompute_box()
            if len(node.entries) > self._max:
                return self._split_leaf(node)
            return None
        child = self._choose_child(node, entry.box)
        split = self._insert(child, entry)
        if split is not None:
            node.children.append(split)
        node.recompute_box()
        if len(node.children) > self._max:
            return self._split_internal(node)
        return None

    def _choose_child(self, node: _Node, box: BoundingBox) -> _Node:
        best = None
        best_key = None
        for child in node.children:
            if child.box is None:
                key = (0.0, 0.0)
            else:
                key = (_enlargement(child.box, box), child.box.area_deg2)
            if best_key is None or key < best_key:
                best_key = key
                best = child
        assert best is not None
        return best

    # -------------------------------------------------------------- split

    def _split_leaf(self, node: _Node) -> _Node:
        groups = self._quadratic_split([e.box for e in node.entries])
        left_idx, right_idx = groups
        entries = node.entries
        sibling = _Node(leaf=True)
        node.entries = [entries[i] for i in left_idx]
        sibling.entries = [entries[i] for i in right_idx]
        node.recompute_box()
        sibling.recompute_box()
        return sibling

    def _split_internal(self, node: _Node) -> _Node:
        groups = self._quadratic_split(
            [c.box or BoundingBox(0, 0, 0, 0) for c in node.children]
        )
        left_idx, right_idx = groups
        children = node.children
        sibling = _Node(leaf=False)
        node.children = [children[i] for i in left_idx]
        sibling.children = [children[i] for i in right_idx]
        node.recompute_box()
        sibling.recompute_box()
        return sibling

    def _quadratic_split(self, boxes: List[BoundingBox]):
        """Guttman's quadratic split: seed with the worst pair, then assign
        each remaining box to the group whose cover grows least."""
        n = len(boxes)
        worst = -1.0
        seed_a, seed_b = 0, 1
        for i in range(n):
            for j in range(i + 1, n):
                waste = (
                    boxes[i].union(boxes[j]).area_deg2
                    - boxes[i].area_deg2
                    - boxes[j].area_deg2
                )
                if waste > worst:
                    worst = waste
                    seed_a, seed_b = i, j
        left = [seed_a]
        right = [seed_b]
        left_box = boxes[seed_a]
        right_box = boxes[seed_b]
        remaining = [i for i in range(n) if i not in (seed_a, seed_b)]
        for i in remaining:
            # Honour the minimum fill so neither group can starve.
            if len(left) + (len(remaining) - len(left) - len(right) + 2) <= self._min:
                left.append(i)
                left_box = left_box.union(boxes[i])
                continue
            if len(right) + (len(remaining) - len(left) - len(right) + 2) <= self._min:
                right.append(i)
                right_box = right_box.union(boxes[i])
                continue
            grow_left = _enlargement(left_box, boxes[i])
            grow_right = _enlargement(right_box, boxes[i])
            if grow_left < grow_right or (
                grow_left == grow_right and len(left) <= len(right)
            ):
                left.append(i)
                left_box = left_box.union(boxes[i])
            else:
                right.append(i)
                right_box = right_box.union(boxes[i])
        return left, right

    # ------------------------------------------------------------- search

    def search(self, box: BoundingBox) -> List[Any]:
        """Values whose rectangles intersect ``box``.

        Iterative traversal: bounding-box queries are the read hot path
        (every non-personalized query runs one), so the per-call
        recursion overhead matters.
        """
        out: List[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.box is not None and not node.box.intersects(box):
                continue
            if node.leaf:
                for entry in node.entries:
                    if entry.box.intersects(box):
                        out.append(entry.value)
            else:
                stack.extend(node.children)
        return out

    def search_point(self, point: GeoPoint) -> List[Any]:
        """Values whose rectangles contain ``point``."""
        return self.search(
            BoundingBox(point.lat, point.lon, point.lat, point.lon)
        )

    # ------------------------------------------------------------- delete

    def delete(self, box: BoundingBox, value: Any) -> bool:
        """Remove one entry matching ``(box, value)``; True if found.

        Underfull nodes are not re-balanced — deletions are rare in the
        POI workload (paper: "low insert/update rates") so the simple
        strategy keeps reads fast without measurable tree degradation.
        """
        removed = self._delete(self._root, box, value)
        if removed:
            self._size -= 1
            if not self._root.leaf and len(self._root.children) == 1:
                self._root = self._root.children[0]
        return removed

    def _delete(self, node: _Node, box: BoundingBox, value: Any) -> bool:
        if node.box is not None and not node.box.intersects(box):
            return False
        if node.leaf:
            for i, entry in enumerate(node.entries):
                if entry.value == value and entry.box == box:
                    del node.entries[i]
                    node.recompute_box()
                    return True
            return False
        for child in node.children:
            if self._delete(child, box, value):
                node.children = [
                    c for c in node.children if c.box is not None or c.leaf
                ]
                node.recompute_box()
                return True
        return False

    def items(self) -> List[tuple]:
        """All ``(box, value)`` pairs, in arbitrary order."""
        out: List[tuple] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend((e.box, e.value) for e in node.entries)
            else:
                stack.extend(node.children)
        return out
