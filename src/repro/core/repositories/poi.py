"""POI Repository (PostgreSQL-resident).

"It contains all the information MoDisSENSE needs to know about POIs.
The name of a POI, its geographical location, the keywords
characterizing it and the hotness/interest metrics ... While POI
repository has to deal with low insert/update rates, it should be able
to handle heavy, random access read loads." (Section 2.1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import QueryError, ValidationError
from ...geo import BoundingBox, GeoPoint
from ...sqlstore import (
    And,
    BBoxContains,
    Column,
    ColumnType,
    Eq,
    HashIndex,
    KeywordsAny,
    OrderedIndex,
    Query,
    Range,
    SpatialIndex,
    SqlEngine,
    TableSchema,
)

TABLE = "pois"

#: Valid sort criteria for non-personalized POI search.
SORT_FIELDS = ("hotness", "interest", "name")


@dataclass(frozen=True)
class POI:
    """A point of interest with its aggregated social metrics."""

    poi_id: int
    name: str
    lat: float
    lon: float
    keywords: Tuple
    category: str
    hotness: float = 0.0
    interest: float = 0.0
    auto_detected: bool = False

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


def _row_to_poi(row: Dict) -> POI:
    return POI(
        poi_id=row["poi_id"],
        name=row["name"],
        lat=row["lat"],
        lon=row["lon"],
        keywords=tuple(row["keywords"]),
        category=row["category"],
        hotness=row["hotness"],
        interest=row["interest"],
        auto_detected=row["auto_detected"],
    )


def _poi_to_row(poi: POI) -> Dict:
    return {
        "poi_id": poi.poi_id,
        "name": poi.name,
        "lat": poi.lat,
        "lon": poi.lon,
        "keywords": list(poi.keywords),
        "category": poi.category,
        "hotness": poi.hotness,
        "interest": poi.interest,
        "auto_detected": poi.auto_detected,
    }


class POIRepository:
    """CRUD + search over the POI table, with the paper's indexes."""

    def __init__(self, engine: SqlEngine) -> None:
        self.engine = engine
        #: Monotonic write version: bumped by every insert and HotIn
        #: update.  The hot-POI answer cache stamps entries with it, so
        #: any POI write invalidates cached non-personalized answers.
        self.version = 0
        schema = TableSchema(
            name=TABLE,
            columns=[
                Column("poi_id", ColumnType.INTEGER),
                Column("name", ColumnType.TEXT),
                Column("lat", ColumnType.FLOAT),
                Column("lon", ColumnType.FLOAT),
                Column("keywords", ColumnType.TEXT_ARRAY, default=[]),
                Column("category", ColumnType.TEXT, default="unknown"),
                Column("hotness", ColumnType.FLOAT, default=0.0),
                Column("interest", ColumnType.FLOAT, default=0.0),
                Column("auto_detected", ColumnType.BOOLEAN, default=False),
            ],
            primary_key="poi_id",
        )
        engine.create_table(schema)
        engine.create_index(TABLE, SpatialIndex("lat", "lon"))
        engine.create_index(TABLE, OrderedIndex("hotness"))
        engine.create_index(TABLE, OrderedIndex("interest"))
        engine.create_index(TABLE, HashIndex("category"))

    # -------------------------------------------------------------- CRUD

    def add(self, poi: POI) -> None:
        """Insert a POI (explicit user entry or Event Detection output)."""
        self.engine.insert(TABLE, _poi_to_row(poi))
        self.version += 1

    def add_many(self, pois) -> int:
        """Insert a batch of POIs (the dataset load) as one engine
        batch and ONE version bump; returns how many."""
        count = len(
            self.engine.insert_many(TABLE, [_poi_to_row(p) for p in pois])
        )
        if count:
            self.version += 1
        return count

    def get(self, poi_id: int) -> Optional[POI]:
        row = self.engine.table(TABLE).get_by_pk(poi_id)
        return _row_to_poi(row) if row else None

    def update_hotin(self, poi_id: int, hotness: float, interest: float) -> bool:
        """Write the HotIn job's aggregates; returns False if unknown."""
        table = self.engine.table(TABLE)
        rids = table.rids_by_pk(poi_id)
        if not rids:
            return False
        self.engine.update(
            TABLE, next(iter(rids)), {"hotness": hotness, "interest": interest}
        )
        self.version += 1
        return True

    def next_poi_id(self) -> int:
        """First free id for auto-detected POIs."""
        table = self.engine.table(TABLE)
        max_id = 0
        for _rid, row in table.scan():
            max_id = max(max_id, row["poi_id"])
        return max_id + 1

    def count(self) -> int:
        return self.engine.count(TABLE)

    def all_pois(self) -> List[POI]:
        return [_row_to_poi(row) for _rid, row in self.engine.table(TABLE).scan()]

    # ------------------------------------------------------------ search

    def search(
        self,
        bbox: Optional[BoundingBox] = None,
        keywords: Optional[Sequence[str]] = None,
        category: Optional[str] = None,
        sort_by: str = "hotness",
        limit: int = 10,
    ) -> List[POI]:
        """Non-personalized POI search — the paper's "select SQL query in
        PostgreSQL" path for queries without a friend list."""
        if sort_by not in SORT_FIELDS:
            raise QueryError(
                "sort_by must be one of %s, got %r" % (SORT_FIELDS, sort_by)
            )
        predicates = []
        if bbox is not None:
            predicates.append(BBoxContains("lat", "lon", bbox))
        if keywords:
            predicates.append(KeywordsAny("keywords", keywords))
        if category is not None:
            predicates.append(Eq("category", category))
        where = And(*predicates) if predicates else None
        rows = self.engine.select(
            Query(
                table=TABLE,
                where=where,
                order_by=(sort_by, sort_by != "name"),
                limit=limit,
            )
        )
        return [_row_to_poi(row) for row in rows]

    def pois_within(self, bbox: BoundingBox) -> List[POI]:
        """All POIs in a bounding box (used by the known-POI filter)."""
        rows = self.engine.select(
            Query(table=TABLE, where=BBoxContains("lat", "lon", bbox))
        )
        return [_row_to_poi(row) for row in rows]

    def nearest_within(
        self, point: GeoPoint, radius_m: float
    ) -> Optional[POI]:
        """Closest POI within ``radius_m`` of ``point``, if any."""
        if radius_m <= 0:
            raise ValidationError("radius_m must be positive")
        probe = BoundingBox(
            point.lat, point.lon, point.lat, point.lon
        ).expand_m(radius_m)
        best: Optional[POI] = None
        best_d = radius_m
        for poi in self.pois_within(probe):
            d = poi.location.distance_m(point)
            if d <= best_d:
                best_d = d
                best = poi
        return best
