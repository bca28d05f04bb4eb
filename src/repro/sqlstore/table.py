"""Heap tables with index maintenance."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Union

from ..errors import IndexError_, SchemaError, StorageError
from .index import HashIndex, OrderedIndex, SpatialIndex
from .schema import TableSchema

IndexType = Union[HashIndex, OrderedIndex, SpatialIndex]


class HeapTable:
    """Rows in insertion order, addressed by a surrogate row id.

    Every declared index is maintained synchronously on insert, update
    and delete, so reads never see a stale index — the property the
    planner's correctness rests on.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: Dict[int, Dict[str, Any]] = {}
        self._next_rid = 1
        self._pk_index = HashIndex(schema.primary_key)
        self._indexes: Dict[str, IndexType] = {}

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------- DDL

    def create_index(self, index: IndexType) -> None:
        """Register an index and backfill it from existing rows."""
        if index.column in self._indexes:
            raise StorageError(
                "index on %r already exists for table %r"
                % (index.column, self.schema.name)
            )
        self._indexes[index.column] = index
        for rid, row in self._rows.items():
            self._index_insert(index, row, rid)

    def indexes(self) -> Dict[str, IndexType]:
        return dict(self._indexes)

    # ------------------------------------------------------------ writes

    def insert(self, row: Dict[str, Any]) -> int:
        """Validate and insert; returns the new row id.

        Enforces primary-key uniqueness, as PostgreSQL would.
        """
        validated = self.schema.validate_row(row)
        pk_value = validated[self.schema.primary_key]
        if self._pk_index.lookup(pk_value):
            raise SchemaError(
                "duplicate primary key %r in table %r"
                % (pk_value, self.schema.name)
            )
        rid = self._next_rid
        self._next_rid += 1
        self._rows[rid] = validated
        self._pk_index.insert(pk_value, rid)
        for index in self._indexes.values():
            self._index_insert(index, validated, rid)
        return rid

    def insert_many(self, rows: Iterable[Dict[str, Any]]) -> List[int]:
        """:meth:`insert` for a batch (an initial load); returns the new
        row ids.  All-or-nothing against validation — every row is
        checked, primary keys against the table *and* each other,
        before any is stored — and each index takes the batch in one
        call, so the spatial index packs instead of splitting its way
        up and the ordered ones sort once.
        """
        primary_key = self.schema.primary_key
        validated = [self.schema.validate_row(row) for row in rows]
        seen: Set[Any] = set()
        for row in validated:
            pk_value = HashIndex._hashable(row[primary_key])
            if pk_value in seen or self._pk_index.lookup(pk_value):
                raise SchemaError(
                    "duplicate primary key %r in table %r"
                    % (row[primary_key], self.schema.name)
                )
            seen.add(pk_value)
        rids = list(range(self._next_rid, self._next_rid + len(validated)))
        self._next_rid += len(validated)
        self._rows.update(zip(rids, validated))
        self._pk_index.insert_many(
            (row[primary_key], rid) for rid, row in zip(rids, validated)
        )
        for index in self._indexes.values():
            index.insert_many(
                (self._index_key(index, row), rid)
                for rid, row in zip(rids, validated)
            )
        return rids

    def update(self, rid: int, changes: Dict[str, Any]) -> None:
        """Apply column changes to one row, keeping indexes in sync."""
        old = self._rows.get(rid)
        if old is None:
            raise StorageError("no row %r in table %r" % (rid, self.schema.name))
        merged = dict(old)
        merged.update(changes)
        validated = self.schema.validate_row(merged)
        new_pk = validated[self.schema.primary_key]
        old_pk = old[self.schema.primary_key]
        if new_pk != old_pk and self._pk_index.lookup(new_pk):
            raise SchemaError(
                "duplicate primary key %r in table %r" % (new_pk, self.schema.name)
            )
        # Only touch indexes whose keyed columns actually changed (the
        # moral equivalent of PostgreSQL's HOT update): a hotness bump
        # must not delete and re-insert the row in the spatial R-tree.
        touched = [
            index
            for index in self._indexes.values()
            if self._index_key(index, old) != self._index_key(index, validated)
        ]
        for index in touched:
            self._index_remove(index, old, rid)
        if new_pk != old_pk:
            self._pk_index.remove(old_pk, rid)
            self._pk_index.insert(new_pk, rid)
        self._rows[rid] = validated
        for index in touched:
            self._index_insert(index, validated, rid)

    def delete(self, rid: int) -> None:
        row = self._rows.pop(rid, None)
        if row is None:
            raise StorageError("no row %r in table %r" % (rid, self.schema.name))
        self._pk_index.remove(row[self.schema.primary_key], rid)
        for index in self._indexes.values():
            self._index_remove(index, row, rid)

    def upsert(self, row: Dict[str, Any]) -> int:
        """Insert, or update the existing row with the same primary key."""
        validated = self.schema.validate_row(row)
        pk_value = validated[self.schema.primary_key]
        existing = self._pk_index.lookup(pk_value)
        if existing:
            rid = next(iter(existing))
            self.update(rid, validated)
            return rid
        return self.insert(validated)

    # ------------------------------------------------------------- reads

    def get(self, rid: int) -> Optional[Dict[str, Any]]:
        row = self._rows.get(rid)
        return dict(row) if row is not None else None

    def get_by_pk(self, pk_value: Any) -> Optional[Dict[str, Any]]:
        rids = self._pk_index.lookup(pk_value)
        if not rids:
            return None
        return self.get(next(iter(rids)))

    def rids_by_pk(self, pk_value: Any) -> Set[int]:
        return self._pk_index.lookup(pk_value)

    def scan(self) -> Iterator[tuple]:
        """All ``(rid, row)`` pairs; rows are copies."""
        for rid, row in self._rows.items():
            yield rid, dict(row)

    def rows_for_rids(self, rids) -> List[Dict[str, Any]]:
        out = []
        for rid in rids:
            row = self._rows.get(rid)
            if row is not None:
                out.append(dict(row))
        return out

    # ---------------------------------------------------- index plumbing

    @staticmethod
    def _index_key(index: IndexType, row: Dict[str, Any]):
        if isinstance(index, SpatialIndex):
            return (row[index.lat_column], row[index.lon_column])
        return row.get(index.column)

    def _index_insert(self, index: IndexType, row: Dict[str, Any], rid: int) -> None:
        key = self._index_key(index, row)
        if isinstance(index, SpatialIndex):
            if key[0] is None or key[1] is None:
                return
            index.insert(key, rid)
        elif key is not None:
            index.insert(key, rid)

    def _index_remove(self, index: IndexType, row: Dict[str, Any], rid: int) -> None:
        key = self._index_key(index, row)
        if isinstance(index, SpatialIndex):
            if key[0] is None or key[1] is None:
                return
            index.remove(key, rid)
        elif key is not None:
            index.remove(key, rid)

    def index_for_column(self, column: str) -> Optional[IndexType]:
        return self._indexes.get(column)

    def spatial_index(self) -> Optional[SpatialIndex]:
        for index in self._indexes.values():
            if isinstance(index, SpatialIndex):
                return index
        return None
