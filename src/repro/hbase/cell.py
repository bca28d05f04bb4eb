"""The versioned cell: HBase's fundamental storage unit."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Tuple

from ..errors import ValidationError

#: A table holds one Cell per stored value (181k in the benchmark
#: dataset); without a per-instance ``__dict__`` each is ~80 bytes
#: smaller.  ``dataclass(slots=...)`` needs Python 3.10; 3.9 runs the
#: same class unslotted.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class Cell:
    """One ``(row, family, qualifier, timestamp) -> value`` entry.

    ``is_delete`` marks a tombstone; the LSM read path must see newer
    tombstones shadow older puts until a major compaction drops both.
    """

    row: bytes
    family: str
    qualifier: bytes
    timestamp: int
    value: bytes = b""
    is_delete: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.row, bytes) or not self.row:
            raise ValidationError("cell row must be non-empty bytes")
        if not isinstance(self.qualifier, bytes):
            raise ValidationError("cell qualifier must be bytes")
        if self.timestamp < 0:
            raise ValidationError("cell timestamp must be >= 0")
        if not isinstance(self.value, bytes):
            raise ValidationError("cell value must be bytes")

    def sort_key(self) -> Tuple:
        """HBase KeyValue order: row asc, family/qualifier asc, timestamp
        *descending* so the newest version of a cell is met first."""
        return (self.row, self.family, self.qualifier, -self.timestamp)

    def coordinates(self) -> Tuple:
        """The cell's identity without version: (row, family, qualifier)."""
        return (self.row, self.family, self.qualifier)

    def __lt__(self, other: "Cell") -> bool:
        return self.sort_key() < other.sort_key()

    def approx_size(self) -> int:
        """Rough heap footprint used by memstore flush thresholds."""
        return 32 + len(self.row) + len(self.qualifier) + len(self.value)


def same_coordinates(a: Tuple, b: Tuple) -> bool:
    """Whether two :meth:`Cell.sort_key` values name the same ``(row,
    family, qualifier)`` (row first: on row-unique tables it decides
    almost every call)."""
    return a[0] == b[0] and a[2] == b[2] and a[1] == b[1]
