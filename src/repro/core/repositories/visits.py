"""Visits Repository (HBase-resident) — the heart of personalized search.

"Each visit is represented by a struct with the complete POI information
(name, latitude, longitude, etc) ... enriched with the interest and
hotness metrics.  Every time a MoDisSENSE user or a user's social friend
visits a POI, a visit struct indexed by user and time is added to the
repository." (Section 2.1)

Row-key design::

    salt(user) ␟ user_id ␟ ts_desc ␟ poi_id

- the 2-byte salt spreads users uniformly over pre-split regions so a
  multi-friend query keeps every region server busy;
- the user id groups one user's visits contiguously;
- the *descending* timestamp makes scans newest-first and lets a time
  window become a key range;
- the poi id disambiguates same-second visits.

The repository supports both schema strategies of the paper's Section
2.1 discussion: ``replicated`` (the struct carries full POI info; the
default, which the paper found faster) and ``normalized`` (the struct
holds only poi_id + grade, forcing a join with the POI repository at
query time).  The ablation bench compares them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ...errors import ValidationError
from ...hbase import (
    Cell,
    HBaseCluster,
    TableDescriptor,
    compose_key,
    decode_int_desc,
    encode_int,
    encode_int_desc,
    next_prefix,
)
from ...hbase.bytes_util import KEY_SEPARATOR, salt_for, salt_int
from ...hbase.region import Region
from ..serialization import decode_json, encode_json

TABLE = "visits"
FAMILY = "v"
QUALIFIER = b"v"

SCHEMA_REPLICATED = "replicated"
SCHEMA_NORMALIZED = "normalized"

#: Head of every stored payload: the visit's grade as one big-endian
#: double.  The JSON of the other attributes follows.
_GRADE = struct.Struct(">d")
#: Sign and bits of the four replicated numbers, for :func:`_poi_tail`'s
#: memo key: ``-0.0 == 0.0`` but they encode differently.
_TAIL_NUMBERS = struct.Struct(">4d")
#: What follows ``prefix ␟`` in a row key — ``ts_desc ␟ poi_id`` — as
#: one pack (the bulk load's key builder; :meth:`VisitsRepository.
#: row_key` is the reference).
_KEY_SUFFIX = struct.Struct(">QcQ")
_U64_MAX = (1 << 64) - 1
#: The row key's layout, positional — ``salt(2) ␟ user(8) ␟ ts_desc(8)
#: ␟ poi(8)``, what :meth:`VisitsRepository.row_key` composes — as the
#: slices every positional reader takes (separator-split would not do:
#: a fixed-width integer may contain the separator byte).
SALT_FIELD = slice(0, 2)
USER_FIELD = slice(3, 11)
TS_FIELD = slice(12, 20)
POI_FIELD = slice(21, 29)


@lru_cache(maxsize=256)
def _window_suffixes(
    since: Optional[int], until: Optional[int]
) -> Tuple[Optional[bytes], Optional[bytes]]:
    """What a time window appends to any user's prefix to bound it:
    ``(start_suffix, stop_suffix)``, None where the window is open.  The
    same for every friend of a query.  ``since > 0`` desc-encodes below
    all-``0xff``, so ``next_prefix`` of the whole key only ever touches
    the suffix."""
    return (
        compose_key(b"", encode_int_desc(until - 1))
        if until is not None and until > 0
        else None,
        compose_key(b"", next_prefix(encode_int_desc(since)))
        if since is not None and since > 0
        else None,
    )


@lru_cache(maxsize=1 << 14, typed=True)
def _poi_tail(
    poi_id: int,
    name: str,
    lat: float,
    lon: float,
    hotness: float,
    interest: float,
    _number_bits: bytes,
    *keywords: str,
) -> bytes:
    """The replicated schema's payload tail.  It holds POI attributes
    only, so the bulk load's ~21 visits per POI share one encoding.
    Every attribute is an argument of its own and ``typed`` — plus the
    numbers' exact bits — so values that merely compare equal (``1`` and
    ``1.0``, ``0.0`` and ``-0.0``) are different keys: the stored bytes
    are those of an unmemoized encode."""
    return encode_json(
        {
            "poi_id": poi_id,
            "name": name,
            "lat": lat,
            "lon": lon,
            "keywords": list(keywords),
            "hotness": hotness,
            "interest": interest,
        }
    )


def _payload(
    schema_mode: str,
    grade: float,
    poi_id: int,
    poi_name: str,
    lat: float,
    lon: float,
    keywords: Sequence[str],
    hotness: float,
    interest: float,
) -> bytes:
    """:meth:`VisitsRepository.encode_payload` over bare fields, so the
    bulk load encodes a generator record without wrapping it."""
    try:
        header = _GRADE.pack(grade)
        if schema_mode != SCHEMA_REPLICATED:
            return header + encode_json({"poi_id": poi_id})
        return header + _poi_tail(
            poi_id,
            poi_name,
            lat,
            lon,
            hotness,
            interest,
            _TAIL_NUMBERS.pack(lat, lon, hotness, interest),
            *keywords,
        )
    except struct.error as exc:
        raise ValidationError(
            "visit grade and POI metrics must be numbers: %s" % exc
        ) from exc


@dataclass(frozen=True)
class VisitStruct:
    """One visit with its replicated POI attributes and metrics."""

    user_id: int
    poi_id: int
    timestamp: int
    grade: float
    poi_name: str = ""
    lat: float = 0.0
    lon: float = 0.0
    keywords: Tuple = ()
    hotness: float = 0.0
    interest: float = 0.0


class VisitsRepository:
    """Visit storage with salted, time-ordered keys."""

    def __init__(
        self,
        cluster: HBaseCluster,
        num_regions: int = 32,
        schema_mode: str = SCHEMA_REPLICATED,
    ) -> None:
        if schema_mode not in (SCHEMA_REPLICATED, SCHEMA_NORMALIZED):
            raise ValidationError("unknown schema mode %r" % schema_mode)
        self.cluster = cluster
        self.schema_mode = schema_mode
        self.table = cluster.create_table(
            TableDescriptor(name=TABLE, families=[FAMILY], num_regions=num_regions)
        )

    # ------------------------------------------------------------- keys

    @staticmethod
    def row_key(user_id: int, timestamp: int, poi_id: int) -> bytes:
        return compose_key(
            salt_for(user_id),
            encode_int(user_id),
            encode_int_desc(timestamp),
            encode_int(poi_id),
        )

    @staticmethod
    def user_of_row(row: bytes) -> int:
        """Whose visit a row key holds — the owner a write to ``row``
        stales in the scan cache."""
        return int.from_bytes(row[USER_FIELD], "big")

    @staticmethod
    def user_prefix(user_id: int) -> bytes:
        return salt_for(user_id) + KEY_SEPARATOR + encode_int(user_id)

    @staticmethod
    def time_range_keys(
        user_id: int, since: Optional[int], until: Optional[int]
    ) -> Tuple[bytes, Optional[bytes]]:
        """``(start, stop)`` covering the user's visits in [since, until),
        newest first (timestamps are desc-encoded).

        ``stop`` is ``None`` when the range is open-ended at the top of
        the key space: :func:`next_prefix` returns ``b""`` for an
        all-``0xff`` prefix, and any other sentinel (a short run of
        ``0xff`` bytes, say) would sort *below* real row keys sharing
        that prefix and silently drop tail-of-keyspace users.
        """
        prefix = VisitsRepository.user_prefix(user_id)
        if until is not None and until <= 0:
            # Empty window: no timestamp is < 0.  An empty key range
            # (start == stop) makes the scan a no-op.
            return (prefix, prefix)
        start_suffix, stop_suffix = _window_suffixes(since, until)
        return (
            prefix + (KEY_SEPARATOR if start_suffix is None else start_suffix),
            next_prefix(prefix) or None
            if stop_suffix is None
            else prefix + stop_suffix,
        )

    # ------------------------------------------------------------ writes

    @staticmethod
    def encode_payload(
        visit: VisitStruct, schema_mode: str = SCHEMA_REPLICATED
    ) -> bytes:
        """A visit's stored value: the grade as an 8-byte big-endian
        double, then the JSON of every other attribute the schema mode
        keeps (the *tail*).  The aggregation hot loop reads the header
        with one ``unpack_from``; the tail is parsed only by whoever
        needs attributes."""
        return _payload(
            schema_mode, visit.grade, visit.poi_id, visit.poi_name,
            visit.lat, visit.lon, visit.keywords, visit.hotness,
            visit.interest,
        )

    def visit_cell(self, visit: VisitStruct) -> Cell:
        """The stored representation of one visit (key + payload)."""
        return Cell(
            row=self.row_key(visit.user_id, visit.timestamp, visit.poi_id),
            family=FAMILY,
            qualifier=QUALIFIER,
            timestamp=visit.timestamp,
            value=self.encode_payload(visit, self.schema_mode),
        )

    def bulk_cells(self, records) -> List[Cell]:
        """:meth:`visit_cell` of every dataset record — anything with
        the eight fields of :class:`~repro.datagen.visits.VisitRecord`;
        hotness and interest are the 0.0 a fresh load has always
        stored.  Byte for byte the same cells, built with less: one
        salted prefix per run of one user's records (the generator
        yields user by user) plus one packed suffix, and the memoized
        POI tail.
        """
        pack_suffix = _KEY_SUFFIX.pack
        schema_mode = self.schema_mode
        cells: List[Cell] = []
        user_id = row_start = None
        for record in records:
            if record.user_id != user_id:
                user_id = record.user_id
                row_start = self.user_prefix(user_id) + KEY_SEPARATOR
            timestamp = record.timestamp
            try:
                row = row_start + pack_suffix(
                    _U64_MAX - timestamp, KEY_SEPARATOR, record.poi_id
                )
            except struct.error:
                # Not a row key: the reference names what is wrong.
                row = self.row_key(user_id, timestamp, record.poi_id)
            cells.append(
                Cell(
                    row=row,
                    family=FAMILY,
                    qualifier=QUALIFIER,
                    timestamp=timestamp,
                    value=_payload(
                        schema_mode, record.grade, record.poi_id,
                        record.poi_name, record.lat, record.lon,
                        record.keywords, 0.0, 0.0,
                    ),
                )
            )
        return cells

    def bulk_load(self, records) -> int:
        """The initial load: every record's cell, sorted once and
        written as store-file data (:meth:`HTable.bulk_load
        <repro.hbase.table.HTable.bulk_load>`) — no log, no memstore,
        no per-cell put.  Visits arriving later go through
        :meth:`store` or the ingest tier.  Returns the number of
        records."""
        cells = self.bulk_cells(records)
        self.table.bulk_load(cells)
        return len(cells)

    def store(self, visit: VisitStruct) -> None:
        self.table.put(self.visit_cell(visit))

    def store_many(self, visits) -> int:
        count = 0
        for visit in visits:
            self.store(visit)
            count += 1
        return count

    # ----------------------------------------------------------- routing

    def route_friends(
        self,
        friend_ids: Sequence[int],
        since: Optional[int] = None,
        until: Optional[int] = None,
    ) -> Dict[Region, List[int]]:
        """Partition friends by the region(s) owning their scan range.

        The client knows each friend's salted key prefix, so it can ship
        every region exactly the friends it serves — regions owning no
        queried friends are never contacted.  A user's rows all start
        with their salt, so one hash and the table's salt map route a
        friend.  A friend whose salt a split point cuts (only a
        midpoint split puts one there) takes the key-range path instead
        and lands in every region its time window's range intersects.
        Buckets keep query order, and regions first-encounter order.
        """
        if not friend_ids:
            return {}
        if min(friend_ids) < 0 or max(friend_ids) > _U64_MAX:
            for friend_id in friend_ids:
                encode_int(friend_id)  # names the first id that is not one
        if until is not None and until <= 0:
            return {}  # empty window: no region needs any friend
        start_suffix, stop_suffix = _window_suffixes(since, until)
        if start_suffix is not None and start_suffix == stop_suffix:
            return {}  # equal bounds: every friend's key range is empty
        owners, slots = self.table.salt_owners, self.table.salt_slots
        routed: Dict[Region, List[int]] = {}
        for friend_id in friend_ids:
            region = owners[slots[salt_int(friend_id)]]
            if region is None:  # a split point cuts this friend's salt
                for region in self.table.regions_for_range(
                    *self.time_range_keys(friend_id, since, until)
                ):
                    routed.setdefault(region, []).append(friend_id)
                continue
            bucket = routed.get(region)
            if bucket is None:
                routed[region] = [friend_id]
            else:
                bucket.append(friend_id)
        return routed

    # ------------------------------------------------------------- reads

    @staticmethod
    def decode_key(row: bytes) -> Tuple[int, int, int]:
        """``(user_id, timestamp, poi_id)`` from the row key alone.

        Parsing is positional (``USER_FIELD`` / ``TS_FIELD`` /
        ``POI_FIELD``).  This is the cheap half of visit decoding: no
        JSON payload is touched.
        """
        return (
            int.from_bytes(row[USER_FIELD], "big"),
            decode_int_desc(row[TS_FIELD]),
            int.from_bytes(row[POI_FIELD], "big"),
        )

    @staticmethod
    def decode_grade(value: bytes) -> float:
        """Just the visit's grade: the payload's fixed header, no parse."""
        return _GRADE.unpack_from(value)[0]

    @staticmethod
    def decode_tail(value: bytes) -> dict:
        """The attributes after the grade header, parsed (the expensive
        half of a payload; call only when a filter or an answer row
        actually needs attributes)."""
        return decode_json(value[_GRADE.size :])

    @staticmethod
    def decode_payload(cell: Cell) -> dict:
        """Every stored attribute of the visit, ``grade`` included, as
        a raw dict."""
        payload = VisitsRepository.decode_tail(cell.value)
        payload["grade"] = VisitsRepository.decode_grade(cell.value)
        return payload

    @staticmethod
    def decode_cell(cell: Cell) -> VisitStruct:
        """Rebuild a full :class:`VisitStruct` from a stored cell
        (key decode + payload decode)."""
        user_id, timestamp, poi_id = VisitsRepository.decode_key(cell.row)
        payload = VisitsRepository.decode_tail(cell.value)
        return VisitStruct(
            user_id=user_id,
            poi_id=payload.get("poi_id", poi_id),
            timestamp=timestamp,
            grade=VisitsRepository.decode_grade(cell.value),
            poi_name=payload.get("name", ""),
            lat=payload.get("lat", 0.0),
            lon=payload.get("lon", 0.0),
            keywords=tuple(payload.get("keywords", ())),
            hotness=payload.get("hotness", 0.0),
            interest=payload.get("interest", 0.0),
        )

    def visits_of_user(
        self,
        user_id: int,
        since: Optional[int] = None,
        until: Optional[int] = None,
    ) -> List[VisitStruct]:
        """One user's visits in the window, newest first."""
        start, stop = self.time_range_keys(user_id, since, until)
        return [
            self.decode_cell(cell)
            for cell in self.table.scan(FAMILY, start, stop)
        ]

    def all_visits(
        self,
        since: Optional[int] = None,
        until: Optional[int] = None,
    ) -> Iterator[VisitStruct]:
        """Every visit in the window — the HotIn job's full-table scan.

        The time bound is a residual filter here (keys lead with the
        user salt), which is exactly how the paper's MapReduce scanner
        behaves.
        """
        for cell in self.table.scan(FAMILY):
            visit = self.decode_cell(cell)
            if since is not None and visit.timestamp < since:
                continue
            if until is not None and visit.timestamp >= until:
                continue
            yield visit

    def count(self) -> int:
        return self.table.total_rows(FAMILY)
