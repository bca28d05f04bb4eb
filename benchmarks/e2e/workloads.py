"""Seeded request generators: the only source of what the platform sees.

Every friend sample, bbox, keyword, Zipf draw and ingest visit comes
from here, derived from ``--seed``; streams are independent per purpose
(``warmup``, ``client0``, ``client1``, ``oracle``, ``ingest``) so that
how far one is consumed never shifts another.

Two populations are part of the fixed dataset rather than of the seed:
the 1024-request SQL pool and the 64 interactive users (friend lists
and filters), both in popularity order.  Which request is the hottest
decides a tenth of a workload's cost (an Athens +-0.3 deg bbox matches
40 % of all POIs, a Rhodes one 4 %), so drawing them per seed made runs
on different seeds differ by more than any change one would want to
detect.  The seed still decides every draw from them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.core.repositories.visits import VisitStruct

from .profile import NUM_USERS, TIME_RANGE

SEARCH = "search"  # personalized: has a friend list
SQL = "sql"        # non-personalized: the POI repository's select path

#: City centres the synthetic POIs cluster around (workload constants,
#: not imported, so a datagen edit cannot silently move the bboxes).
CITIES = (
    (37.9838, 23.7275),  # Athens
    (40.6401, 22.9444),  # Thessaloniki
    (38.2466, 21.7346), (35.3387, 25.1442), (39.6390, 22.4191),
    (39.3622, 22.9420), (39.6650, 20.8537), (35.5138, 24.0180),
    (36.4341, 28.2176),
)
#: ``since`` that cuts the oldest 40 % of the loaded time range.
SINCE_CUT = TIME_RANGE[0] + (TIME_RANGE[1] - TIME_RANGE[0]) * 2 // 5

INGEST_BATCH = 100
INGEST_BATCHES_PER_S = 20


@dataclass(frozen=True)
class Op:
    kind: str
    #: The JSON request body, exactly as it goes over the wire.
    body: str


@dataclass
class Workload:
    name: str
    seed: int
    #: One endless op stream per closed-loop client.
    clients: List[Iterator[Op]]
    #: Ops per client between two calibration boundaries (~0.4 s).
    slice_ops: int
    #: The window never ends before this many ops completed, and
    #: ``sim_ms_p50`` is taken over client 0's first ``sim_prefix``
    #: personalized searches, so it repeats exactly for a seed.
    min_ops: int
    sim_prefix: int
    #: Ops per client in each segment of the traced run (fixed, so
    #: per-request counts repeat exactly for a seed).
    trace_ops: int
    warmup: List[Op]
    #: Endless stream of personalized requests for the oracle check.
    oracle: Iterator[Op]
    #: Endless stream of visit batches; None on read-only workloads.
    ingest: Optional[Iterator[List[VisitStruct]]] = None
    notes: dict = field(default_factory=dict)


def _rng(seed: int, name: str, stream: str) -> random.Random:
    return random.Random("%d/%s/%s" % (seed, name, stream))


def _bbox(center: Sequence[float], half: float) -> List[float]:
    lat, lon = center
    return [
        round(lat - half, 4), round(lon - half, 4),
        round(lat + half, 4), round(lon + half, 4),
    ]


def _zipf_picker(rng: random.Random, items: Sequence):
    """Draws from ``items`` with P(rank r) ~ 1/r (Zipf, s = 1)."""
    cumulative = list(
        itertools.accumulate(1.0 / rank for rank in range(1, len(items) + 1))
    )
    return lambda: rng.choices(items, cum_weights=cumulative)[0]


def _keywords(pois) -> List[str]:
    return sorted({keyword for poi in pois for keyword in poi.keywords})


def _searches(
    rng: random.Random, friends: int, keywords: Sequence[str] = ()
) -> Iterator[Op]:
    """Fresh uniform friend samples; with ``keywords`` every request
    also carries a bbox (Athens or Thessaloniki +-0.2 deg), one keyword
    and the ``since`` cut, and alternates interest/hotness."""
    users = range(1, NUM_USERS + 1)
    for i in itertools.count():
        request = {
            "friend_ids": rng.sample(users, friends),
            "sort_by": "interest",
            "limit": 10,
            "client_id": "bench",
        }
        if keywords:
            request["bbox"] = _bbox(CITIES[rng.randrange(2)], 0.2)
            request["keywords"] = [rng.choice(keywords)]
            request["since"] = SINCE_CUT
            request["sort_by"] = ("interest", "hotness")[i % 2]
        yield Op(SEARCH, json.dumps(request))


def _sql_pool(rng: random.Random, keywords: Sequence[str], size: int) -> List[Op]:
    """``size`` distinct bbox+keyword requests, hottest first."""
    shapes = [
        (city, half, keyword, sort_by)
        for city in range(len(CITIES))
        for half in (0.1, 0.2, 0.3)
        for keyword in keywords
        for sort_by in ("interest", "hotness")
    ]
    return [
        Op(SQL, json.dumps({
            "bbox": _bbox(CITIES[city], half),
            "keywords": [keyword],
            "sort_by": sort_by,
            "limit": 10,
        }))
        for city, half, keyword, sort_by in rng.sample(shapes, size)
    ]


def _interactive_users(
    rng: random.Random, keywords: Sequence[str], users: int, friends: int
) -> List[List[Op]]:
    """Per simulated user ``[plain, filtered]`` requests over one fixed
    friend list."""
    out = []
    for user in range(users):
        request = {
            "friend_ids": rng.sample(range(1, NUM_USERS + 1), friends),
            "sort_by": "interest",
            "limit": 10,
            "client_id": "user-%d" % user,
        }
        filtered = dict(
            request,
            bbox=_bbox(CITIES[rng.randrange(2)], 0.2),
            keywords=[rng.choice(keywords)],
            since=SINCE_CUT,
        )
        out.append([Op(SEARCH, json.dumps(request)),
                    Op(SEARCH, json.dumps(filtered))])
    return out


def _interactive_client(
    rng: random.Random, users: List[List[Op]], pool: List[Op]
) -> Iterator[Op]:
    pick_user = _zipf_picker(rng, range(len(users)))
    pick_sql = _zipf_picker(rng, pool)
    issued = [0] * len(users)
    while True:
        if rng.random() < 0.5:
            user = pick_user()
            issued[user] += 1
            # Every second request of a user is the filtered one.
            yield users[user][1 - issued[user] % 2]
        else:
            yield pick_sql()


def _search_sql_cycle(
    searches: Iterator[Op], rng: random.Random, pool: List[Op]
) -> Iterator[Op]:
    pick_sql = _zipf_picker(rng, pool)
    for search in searches:
        yield search
        for _ in range(4):
            yield pick_sql()


def _visit_batches(rng: random.Random, pois) -> Iterator[List[VisitStruct]]:
    """Batches of visits by uniform users to uniform POIs, timestamped
    after the loaded range (strictly increasing, so row keys are new)."""
    timestamp = TIME_RANGE[1]
    while True:
        batch = []
        for _ in range(INGEST_BATCH):
            poi = pois[rng.randrange(len(pois))]
            timestamp += 1
            batch.append(VisitStruct(
                user_id=rng.randint(1, NUM_USERS),
                poi_id=poi.poi_id,
                timestamp=timestamp,
                grade=round(rng.random(), 3),
                poi_name=poi.name,
                lat=poi.lat,
                lon=poi.lon,
                keywords=tuple(poi.keywords),
            ))
        yield batch


def _first_of_each_kind(stream: Iterator[Op], per_kind: int, kinds: int) -> List[Op]:
    taken: dict = {}
    while len(taken) < kinds or any(len(b) < per_kind for b in taken.values()):
        op = next(stream)
        bucket = taken.setdefault(op.kind, [])
        if len(bucket) < per_kind:
            bucket.append(op)
    return [op for bucket in taken.values() for op in bucket]


def make(name: str, seed: int, pois) -> Workload:
    """The workload ``name`` for ``seed`` over the generated ``pois``."""
    keywords = _keywords(pois)

    def rng(stream: str) -> random.Random:
        return _rng(seed, name, stream)

    if name == "fresh6000":
        return Workload(
            name, seed, [_searches(rng("client0"), 6000)],
            slice_ops=1, min_ops=16, sim_prefix=16, trace_ops=6,
            warmup=list(itertools.islice(_searches(rng("warmup"), 6000), 3)),
            oracle=_searches(rng("oracle"), 6000),
        )
    if name == "filtered2000":
        return Workload(
            name, seed, [_searches(rng("client0"), 2000, keywords)],
            slice_ops=2, min_ops=40, sim_prefix=40, trace_ops=14,
            warmup=list(itertools.islice(
                _searches(rng("warmup"), 2000, keywords), 3)),
            oracle=_searches(rng("oracle"), 2000, keywords),
        )
    pool = _sql_pool(random.Random("sql-pool"), keywords, 1024)
    if name == "interactive_mix":
        users = _interactive_users(
            random.Random("users"), keywords, users=64, friends=200)
        return Workload(
            name, seed,
            [_interactive_client(rng("client%d" % c), users, pool)
             for c in range(2)],
            slice_ops=16, min_ops=640, sim_prefix=150, trace_ops=240,
            # Besides 3 ops per type, fill the hot-POI cache with the
            # 256 hottest SQL requests, so the window starts in the
            # steady state rather than measuring the fill.
            warmup=_first_of_each_kind(
                _interactive_client(rng("warmup"), users, pool), 3, 2
            ) + pool[:256],
            oracle=(op for op in _interactive_client(rng("oracle"), users, pool)
                    if op.kind == SEARCH),
            notes={"users": 64, "friends": 200, "sql_pool": len(pool)},
        )
    if name == "ingest_under_query":
        return Workload(
            name, seed,
            [_search_sql_cycle(_searches(rng("client0"), 2000),
                               rng("client0-sql"), pool)],
            slice_ops=0, min_ops=0, sim_prefix=6, trace_ops=0,
            warmup=_first_of_each_kind(
                _search_sql_cycle(_searches(rng("warmup"), 2000),
                                  rng("warmup-sql"), pool), 3, 2),
            oracle=_searches(rng("oracle"), 2000),
            ingest=_visit_batches(rng("ingest"), pois),
            notes={"batch": INGEST_BATCH, "batches_per_s": INGEST_BATCHES_PER_S},
        )
    raise ValueError("unknown workload %r" % name)
