"""The multi-table SQL engine facade."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import TableExistsError, TableNotFoundError
from .index import HashIndex, OrderedIndex, SpatialIndex
from .planner import Planner, QueryPlan
from .query import Query
from .schema import TableSchema
from .table import HeapTable


class SqlEngine:
    """The PostgreSQL stand-in: tables, indexes, SELECT with a planner.

    Usage::

        engine = SqlEngine()
        engine.create_table(schema)
        engine.create_index("pois", OrderedIndex("hotness"))
        rows = engine.select(Query(table="pois", where=..., limit=10))
    """

    def __init__(self) -> None:
        self._tables: Dict[str, HeapTable] = {}
        self._planner = Planner()
        #: Running counters exposed for tests and benchmarks.
        self.stats: Dict[str, int] = {
            "selects": 0,
            "inserts": 0,
            "updates": 0,
            "deletes": 0,
            "seq_scans": 0,
            "index_scans": 0,
            "index_order_scans": 0,
        }

    # --------------------------------------------------------------- DDL

    def create_table(self, schema: TableSchema) -> HeapTable:
        if schema.name in self._tables:
            raise TableExistsError("table %r already exists" % schema.name)
        table = HeapTable(schema)
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError("table %r does not exist" % name)
        del self._tables[name]

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError("table %r does not exist" % name) from None

    def create_index(self, table_name: str, index) -> None:
        self.table(table_name).create_index(index)

    # --------------------------------------------------------------- DML

    def insert(self, table_name: str, row: Dict[str, Any]) -> int:
        self.stats["inserts"] += 1
        return self.table(table_name).insert(row)

    def insert_many(self, table_name: str, rows) -> List[int]:
        """Insert a batch through :meth:`HeapTable.insert_many`."""
        rids = self.table(table_name).insert_many(rows)
        self.stats["inserts"] += len(rids)
        return rids

    def upsert(self, table_name: str, row: Dict[str, Any]) -> int:
        self.stats["inserts"] += 1
        return self.table(table_name).upsert(row)

    def update(self, table_name: str, rid: int, changes: Dict[str, Any]) -> None:
        self.stats["updates"] += 1
        self.table(table_name).update(rid, changes)

    def delete(self, table_name: str, rid: int) -> None:
        self.stats["deletes"] += 1
        self.table(table_name).delete(rid)

    # ------------------------------------------------------------ SELECT

    def explain(self, query: Query) -> QueryPlan:
        """The plan that :meth:`select` would execute."""
        return self._planner.plan(self.table(query.table), query)

    def select(self, query: Query) -> List[Dict[str, Any]]:
        """Run a query: plan, fetch candidates, filter, sort, project."""
        self.stats["selects"] += 1
        table = self.table(query.table)

        pushed = self._try_order_by_pushdown(table, query)
        if pushed is not None:
            return pushed

        plan = self._planner.plan(table, query)
        if plan.access_path == "seq scan":
            self.stats["seq_scans"] += 1
        else:
            self.stats["index_scans"] += 1

        rids = self._planner.candidate_rids(table, plan)
        rows = table.rows_for_rids(rids)

        for pred in plan.residual_predicates:
            rows = [row for row in rows if pred.matches(row)]
        # Recheck the driving predicate too: spatial index search returns
        # intersecting rectangles, the predicate wants containment.
        if plan.driving_predicate is not None:
            rows = [row for row in rows if plan.driving_predicate.matches(row)]

        if query.order_by is not None:
            column, descending = query.order_by
            rows.sort(
                key=lambda r: (r.get(column) is None, r.get(column)),
                reverse=descending,
            )
        if query.limit is not None:
            rows = rows[: query.limit]
        if query.columns is not None:
            rows = [{c: row.get(c) for c in query.columns} for row in rows]
        return rows

    def _try_order_by_pushdown(self, table: HeapTable, query: Query):
        """Top-k without a full sort: an unfiltered ORDER BY + LIMIT over
        an ordered-indexed column streams directly from the index (the
        PostgreSQL "index scan backward ... limit" plan).

        Returns None when the pushdown does not apply — the caller falls
        back to the general plan.  Requires the index to cover every row
        (NULLs are not indexed, and a missing row would break top-k).
        """
        if query.where is not None or query.order_by is None:
            return None
        if query.limit is None:
            return None
        column, descending = query.order_by
        index = table.index_for_column(column)
        from .index import OrderedIndex

        if not isinstance(index, OrderedIndex) or len(index) != len(table):
            return None
        self.stats["index_order_scans"] += 1
        rids = []
        for _key, rid in index.iter_sorted(reverse=descending):
            rids.append(rid)
            if len(rids) == query.limit:
                break
        rows = table.rows_for_rids(rids)
        if query.columns is not None:
            rows = [{c: row.get(c) for c in query.columns} for row in rows]
        return rows

    def count(self, table_name: str) -> int:
        return len(self.table(table_name))

    def table_names(self) -> List[str]:
        return sorted(self._tables)
