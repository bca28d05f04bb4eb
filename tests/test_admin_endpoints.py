"""JSON-shape contract tests for every ``admin_*`` endpoint.

The admin surface is how operators (and the chaos-drill runbooks in
EXPERIMENTS.md) see the platform; these tests pin the response envelopes
so dashboards built on them don't silently break.
"""

import dataclasses

import pytest

from repro import MoDisSENSE, RestApi
from repro.config import PlatformConfig, TelemetryConfig
from repro.core.repositories.visits import VisitStruct


def _config(profiler=False, telemetry=True):
    return dataclasses.replace(
        PlatformConfig.small(),
        telemetry=TelemetryConfig(
            enabled=telemetry, profiler_enabled=profiler
        ),
    )


@pytest.fixture()
def api():
    p = MoDisSENSE(_config())
    for uid in range(1, 10):
        p.visits_repository.store(VisitStruct(
            user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
            poi_name="A", lat=37.98, lon=23.73, keywords=("x",),
        ))
    rest = RestApi(p)
    yield rest, p
    p.shutdown()


def _search(rest, friends=(1, 2, 3)):
    out = rest.handle(
        "search", {"friend_ids": list(friends), "sort_by": "hotness"}
    )
    assert out["status"] == "ok"
    return out


class TestAdminMetrics:
    def test_json_snapshot_shape(self, api):
        rest, _p = api
        out = rest.handle("admin_metrics", {})
        assert out["status"] == "ok"
        assert set(out["data"]) == {"counters", "gauges", "latencies"}

    def test_prometheus_shape(self, api):
        rest, _p = api
        out = rest.handle("admin_metrics", {"format": "prometheus"})
        assert out["status"] == "ok"
        assert set(out["data"]) == {"content_type", "body"}
        assert "version=0.0.4" in out["data"]["content_type"]


class TestAdminTraces:
    def test_shape_and_tracer_description(self, api):
        rest, _p = api
        _search(rest)
        out = rest.handle("admin_traces", {"limit": 5})
        assert out["status"] == "ok"
        data = out["data"]
        assert set(data) == {"traces", "tracing"}
        tracing = data["tracing"]
        # Satellite: the ring capacities and slow threshold are visible.
        assert tracing["max_traces"] == 128
        assert tracing["slow_log_size"] == 32
        assert tracing["slow_threshold_ms"] == 250.0
        assert data["traces"][0]["trace_id"] is not None

    def test_slow_threshold_settable_at_runtime(self, api):
        rest, p = api
        out = rest.handle("admin_traces", {"slow_threshold_ms": 0.0})
        assert out["status"] == "ok"
        assert out["data"]["tracing"]["slow_threshold_ms"] == 0.0
        assert p.tracer.slow_threshold_ms == 0.0
        # With a zero cutoff every query is a slow query.
        _search(rest)
        slow = rest.handle("admin_traces", {"slow": True})
        assert slow["data"]["traces"]

    def test_negative_threshold_rejected(self, api):
        rest, _p = api
        out = rest.handle("admin_traces", {"slow_threshold_ms": -1.0})
        assert out["status"] == "error"


class TestAdminCache:
    def test_shape(self, api):
        rest, _p = api
        out = rest.handle("admin_cache", {})
        assert out["status"] == "ok"
        data = out["data"]
        assert set(data) == {"enabled", "scan", "hot_poi"}

    def test_scan_envelope_reports_the_poi_attr_table(self):
        p = MoDisSENSE(PlatformConfig.small())
        try:
            for uid in range(1, 10):
                p.visits_repository.store(VisitStruct(
                    user_id=uid, poi_id=uid % 3, timestamp=uid, grade=0.5,
                    poi_name="A", lat=37.98, lon=23.73, keywords=("x",),
                ))
            rest = RestApi(p)
            _search(rest, friends=range(1, 10))
            scan = rest.handle("admin_cache", {})["data"]["scan"]
            assert set(scan) == {
                "entries", "poi_attrs", "max_entries", "hits",
                "misses", "evictions", "invalidations", "hit_rate",
                "evicted_by_write", "journal_overflows",
            }
            # Every aggregated POI was parsed once, for all regions.
            assert scan["poi_attrs"] == 3
            cleared = rest.handle("admin_cache", {"clear": True})
            assert cleared["data"]["scan"]["poi_attrs"] == 0
        finally:
            p.shutdown()


class TestAdminDescribe:
    def test_includes_telemetry(self, api):
        rest, _p = api
        out = rest.handle("admin_describe", {})
        assert out["status"] == "ok"
        telemetry = out["data"]["telemetry"]
        assert telemetry["enabled"] is True
        assert set(telemetry) >= {"store", "slo", "events"}


class TestAdminTimeseries:
    def test_directory_listing(self, api):
        rest, p = api
        _search(rest)
        p.telemetry.tick(1.0)
        out = rest.handle("admin_timeseries", {})
        assert out["status"] == "ok"
        data = out["data"]
        assert data["enabled"] is True
        assert "queries.personalized" in data["series"]
        assert data["store"]["scrapes"] >= 1

    def test_prefix_filter(self, api):
        rest, p = api
        _search(rest)
        p.telemetry.tick(1.0)
        out = rest.handle("admin_timeseries", {"prefix": "queries."})
        names = out["data"]["series"]
        assert names
        assert all(n.startswith("queries.") for n in names)

    def test_named_series_raw_and_rollup(self, api):
        rest, p = api
        for t in range(1, 4):
            _search(rest)
            p.telemetry.tick(float(t))
        raw = rest.handle(
            "admin_timeseries", {"name": "queries.personalized"}
        )
        assert raw["status"] == "ok"
        data = raw["data"]
        assert data["kind"] == "counter"
        points = data["samples"]["points"]
        assert len(points) == 3
        assert all(len(p) == 2 for p in points)  # [t, value]

        rolled = rest.handle(
            "admin_timeseries",
            {"name": "queries.personalized", "resolution": 10},
        )
        rows = rolled["data"]["samples"]["points"]
        assert rows and all(len(r) == 6 for r in rows)  # bucket rows

    def test_unknown_series_is_empty_not_error(self, api):
        rest, _p = api
        out = rest.handle("admin_timeseries", {"name": "no.such"})
        assert out["status"] == "ok"
        assert out["data"]["samples"]["points"] == []


class TestAdminHealth:
    def test_shape(self, api):
        rest, p = api
        _search(rest)
        p.telemetry.tick(1.0)
        out = rest.handle("admin_health", {})
        assert out["status"] == "ok"
        data = out["data"]
        assert data["enabled"] is True
        assert data["state"] in ("healthy", "warning", "critical")
        by_name = {s["name"]: s for s in data["slos"]}
        assert set(by_name) == {
            "goodput", "personalized_p99_latency", "ingest_freshness",
            "fanout_coverage", "degraded_query_rate",
            "backpressure_shed_rate", "storage_integrity",
            "recovery_mttr",
        }
        slo = by_name["fanout_coverage"]
        for key in ("state", "target", "fast_burn", "slow_burn",
                    "budget_remaining", "fast_window_s", "slow_window_s",
                    "critical_burn", "warning_burn"):
            assert key in slo, key


class TestAdminProfile:
    def test_disabled_profiler_shape(self, api):
        rest, _p = api
        out = rest.handle("admin_profile", {})
        assert out["status"] == "ok"
        assert out["data"] == {"enabled": False}

    def test_enabled_shape_and_reset(self):
        p = MoDisSENSE(_config(profiler=True))
        rest = RestApi(p)
        try:
            # Deterministic: take a sample by hand rather than racing
            # the 20 ms wall-clock sampler.
            p.telemetry.profiler.sample_once()
            out = rest.handle("admin_profile", {"reset": True})
            assert out["status"] == "ok"
            data = out["data"]
            assert set(data) == {"enabled", "stats", "folded"}
            assert data["stats"]["samples"] >= 1
            assert isinstance(data["folded"], list)
            # reset=True cleared the accumulator after the read.
            after = rest.handle("admin_profile", {})
            assert after["data"]["stats"]["samples"] == 0
        finally:
            p.shutdown()


class TestAdminEvents:
    def test_shape_and_type_filter(self, api):
        rest, _p = api
        _search(rest)
        out = rest.handle("admin_events", {"type": "query.personalized"})
        assert out["status"] == "ok"
        data = out["data"]
        assert set(data) == {"enabled", "events", "stats"}
        assert data["events"]
        assert all(
            e["type"] == "query.personalized" for e in data["events"]
        )
        assert data["stats"]["emitted"] >= 1

    def test_interesting_filter_and_limit(self, api):
        rest, p = api
        p.telemetry.events.emit({"type": "drill"}, keep=True)
        p.telemetry.events.emit({"type": "drill"}, keep=True)
        out = rest.handle(
            "admin_events", {"interesting": True, "limit": 1}
        )
        events = out["data"]["events"]
        assert len(events) == 1
        assert events[0]["interesting"] is True


class TestAdminSupervisor:
    def test_enabled_shape_and_drill(self):
        p = MoDisSENSE(_config())
        for uid in range(1, 10):
            p.visits_repository.store(VisitStruct(
                user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
                poi_name="A", lat=37.98, lon=23.73, keywords=("x",),
            ))
        rest = RestApi(p)
        try:
            out = rest.handle("admin_supervisor", {})
            assert out["status"] == "ok"
            data = out["data"]
            assert data["enabled"] is True
            assert {"leases", "history", "describe"} <= set(data)
            assert len(data["leases"]) == p.config.cluster.num_nodes
            assert all(row["live"] for row in data["leases"])
            assert data["history"] == []
            assert data["describe"]["supervised_regions"] > 0

            drilled = rest.handle("admin_supervisor", {"drill": True})
            assert drilled["status"] == "ok"
            record = drilled["data"]["drill"]
            assert record["drill"] is True
            assert record["mttr_s"] >= 0.0
            assert drilled["data"]["history"]  # the drill is on record
            # The crashed node stays down (rejoin is separate); its
            # regions were re-homed, so service is whole regardless.
            dead = [r for r in drilled["data"]["leases"] if not r["live"]]
            assert len(dead) == 1 and dead[0]["declared_dead"]
            whole = _search(rest)
            assert whole["data"].get("degraded") in (False, None)

            scrubbed = rest.handle("admin_supervisor", {"scrub": True})
            assert scrubbed["status"] == "ok"
            assert "blocks_scanned" in scrubbed["data"]["scrub"]

            bad = rest.handle("admin_supervisor", {"node": 99, "drill": True})
            assert bad["status"] == "error"
        finally:
            p.shutdown()


class TestTelemetryDisabled:
    """Every telemetry endpoint degrades to an explicit 'off' envelope
    rather than erroring when the hub is disabled."""

    def test_disabled_envelopes(self):
        p = MoDisSENSE(_config(telemetry=False))
        rest = RestApi(p)
        try:
            ts = rest.handle("admin_timeseries", {})
            assert ts["data"] == {"enabled": False}
            health = rest.handle("admin_health", {})
            assert health["data"] == {
                "enabled": False, "state": "healthy", "slos": []
            }
            prof = rest.handle("admin_profile", {})
            assert prof["data"] == {"enabled": False}
            events = rest.handle("admin_events", {})
            assert events["data"] == {"enabled": False, "events": []}
        finally:
            p.shutdown()
