"""Relational schemas: typed columns with nullability and defaults."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """The small type system the platform's tables need."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    #: A list of strings, like PostgreSQL's ``text[]`` (POI keywords).
    TEXT_ARRAY = "text[]"
    #: Arbitrary JSON-serializable payload, like ``jsonb``.
    JSON = "json"

    def validate(self, value: Any) -> Any:
        """Check (and lightly coerce) a value for this type."""
        if self is ColumnType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError("expected integer, got %r" % (value,))
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError("expected float, got %r" % (value,))
            return float(value)
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise SchemaError("expected text, got %r" % (value,))
            return value
        if self is ColumnType.BOOLEAN:
            if not isinstance(value, bool):
                raise SchemaError("expected boolean, got %r" % (value,))
            return value
        if self is ColumnType.TEXT_ARRAY:
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, str) for v in value
            ):
                raise SchemaError("expected list of strings, got %r" % (value,))
            return list(value)
        if self is ColumnType.JSON:
            return value
        raise SchemaError("unknown column type %r" % self)


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = None


@dataclass
class TableSchema:
    """A named, ordered collection of columns with a primary key."""

    name: str
    columns: List[Column]
    primary_key: str

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate column names in %r" % self.name)
        if self.primary_key not in names:
            raise SchemaError(
                "primary key %r is not a column of %r"
                % (self.primary_key, self.name)
            )
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                "table %r has no column %r" % (self.name, name)
            ) from None

    def validate_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Return a complete, validated row dict.

        Unknown keys are rejected; missing keys take defaults or, when
        nullable, ``None``.
        """
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(
                "unknown columns %s for table %r" % (sorted(unknown), self.name)
            )
        out: Dict[str, Any] = {}
        for col in self.columns:
            if col.name in row and row[col.name] is not None:
                out[col.name] = col.type.validate(row[col.name])
            elif col.default is not None:
                out[col.name] = col.type.validate(col.default)
            elif col.nullable:
                out[col.name] = None
            else:
                raise SchemaError(
                    "column %r of %r is not nullable and has no default"
                    % (col.name, self.name)
                )
        return out
