"""The one platform profile the benchmark measures: everything on.

The cluster shape and dataset are those of ``benchmarks/_workload.py``
(16 nodes, 32 regions, 175 us/record, 8,500 POIs, 10,500 users,
Normal(17, 10.1) visits per user); on top of it cache, top-k, ingest,
supervisor, admission, tracing and telemetry are all enabled — the
production stack ROADMAP's north star asks for.
"""

from __future__ import annotations

import itertools
import json
import struct
import threading
import time
import zlib
from typing import Iterator, List, Tuple

from repro import ClusterConfig, MoDisSENSE, PlatformConfig, RestApi
from repro.datagen import generate_pois, generate_visits

from .hostclock import ScaledStopwatch

NUM_POIS = 8_500
NUM_USERS = 10_500
VISIT_MEAN = 17.0
VISIT_STD = 10.1
DATA_SEED = 2015
#: ``generate_visits``'s default time range, spelled out because the
#: workloads place ``since`` cuts and ingest timestamps relative to it.
TIME_RANGE = (1_400_000_000, 1_430_000_000)

#: (visit count, CRC-32 over every visit's (user, timestamp, poi) row
#: key fields in generation order).  A change to ``repro.datagen`` that
#: moves the workload fails the run instead of moving the numbers.
DATASET_FINGERPRINT = (181_219, 0xF3A453A1)

FEATURES = (
    "cache", "topk", "ingest", "supervisor", "admission", "tracing",
    "telemetry",
)

#: Visits are bulk-loaded in chunks with a calibration boundary between
#: them, so a host phase change during set-up is scaled out of setup_s.
_LOAD_CHUNK = 24_000


class BenchmarkError(Exception):
    """A correctness, fingerprint, conservation or leak failure: the run
    exits non-zero and prints no metrics."""


def production_config() -> PlatformConfig:
    config = PlatformConfig(
        cluster=ClusterConfig(
            num_nodes=16,
            regions_per_table=32,
            cost_per_record_us=175.0,
            merge_cost_per_item_us=1.5,
        )
    )
    for name in FEATURES:
        section = getattr(config, name, None)
        # A flag a later PR removed means "always on": nothing to set.
        if section is not None and hasattr(section, "enabled"):
            section.enabled = True
    return config


def _fingerprinted(visits: Iterator, state: List[int]) -> Iterator:
    pack = struct.Struct("<qqq").pack
    crc32 = zlib.crc32
    count, crc = 0, 0
    for visit in visits:
        count += 1
        crc = crc32(pack(visit.user_id, visit.timestamp, visit.poi_id), crc)
        yield visit
    state[:] = [count, crc]


def build(stopwatch: ScaledStopwatch) -> Tuple[MoDisSENSE, RestApi, list, int]:
    """Build and bulk-load the platform, lapping ``stopwatch`` between
    chunks; returns ``(platform, api, pois, visits_loaded)``."""
    platform = MoDisSENSE(production_config())
    api = RestApi(platform)
    pois = generate_pois(count=NUM_POIS, seed=DATA_SEED)
    platform.load_pois(pois)
    stopwatch.lap()
    state: List[int] = []
    visits = _fingerprinted(
        generate_visits(
            range(1, NUM_USERS + 1), pois, seed=DATA_SEED,
            mean=VISIT_MEAN, std=VISIT_STD, time_range=TIME_RANGE,
        ),
        state,
    )
    loaded = 0
    while True:
        chunk = platform.load_visits(itertools.islice(visits, _LOAD_CHUNK))
        loaded += chunk
        stopwatch.lap()
        if chunk < _LOAD_CHUNK:
            break
    if tuple(state) != DATASET_FINGERPRINT:
        raise BenchmarkError(
            "dataset fingerprint (visits, crc) is (%d, %#x), expected "
            "(%d, %#x): repro.datagen changed the workload"
            % (state[0], state[1], *DATASET_FINGERPRINT)
        )
    return platform, api, pois, loaded


def call(api: RestApi, endpoint: str, request: dict) -> dict:
    """One request through the wire boundary, envelope checked."""
    envelope = json.loads(api.handle_json(endpoint, json.dumps(request)))
    if envelope.get("status") != "ok":
        raise BenchmarkError("%s failed: %r" % (endpoint, envelope))
    return envelope["data"]


def assert_all_on(api: RestApi) -> None:
    """Fail loudly if the platform reports any feature off."""
    described = call(api, "admin_describe", {})
    on = {
        "cache": described["cache"]["enabled"],
        "ingest": described["ingest"]["running"],
        "supervisor": described["supervisor"]["enabled"],
        "admission": described["admission"]["enabled"],
        "tracing": described["tracing"]["enabled"],
        "telemetry": described["telemetry"]["enabled"],
        # admin_describe has no top-k section; explain reports whether
        # the threshold algorithm ran for a query.
        "topk": call(api, "explain", {"friend_ids": list(range(1, 65))})[
            "topk"
        ]["enabled"],
    }
    off = sorted(name for name, enabled in on.items() if not enabled)
    if off:
        raise BenchmarkError("features reported off: %s" % ", ".join(off))


def shutdown(platform: MoDisSENSE) -> None:
    """Shut the platform down and fail on any thread it leaves behind."""
    platform.shutdown()
    deadline = time.monotonic() + 5.0
    while True:
        leaked = [
            t.name for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon
        ]
        if not leaked:
            return
        if time.monotonic() > deadline:
            raise BenchmarkError(
                "threads alive after platform.shutdown(): %s" % leaked
            )
        time.sleep(0.05)
