"""Tests for the REST/JSON API layer."""

import pytest

from repro import MoDisSENSE, RestApi
from repro.config import PlatformConfig
from repro.core.api.json_format import ApiResponse, validate_request
from repro.core.repositories.poi import POI
from repro.core.repositories.visits import VisitStruct
from repro.datagen import ReviewGenerator
from repro.errors import ValidationError
from repro.social import CheckIn, FriendInfo


def _baseline_small():
    return PlatformConfig.baseline(PlatformConfig.small().cluster)


@pytest.fixture()
def api():
    p = MoDisSENSE(PlatformConfig.small())
    fb = p.plugins["facebook"]
    for i in range(1, 6):
        fb.add_profile(FriendInfo("fb_%d" % i, "User %d" % i, "pic"))
    for i in range(2, 6):
        fb.add_friendship("fb_1", "fb_%d" % i)
    p.poi_repository.add(
        POI(poi_id=1, name="Taverna", lat=37.98, lon=23.73,
            keywords=("food",), category="restaurant", hotness=5.0,
            interest=0.9)
    )
    corpus = ReviewGenerator(seed=1, capacity=2000).labeled_texts(500)
    p.text_processing.train(corpus)
    fb.add_checkin(CheckIn("fb_2", 1, 37.98, 23.73, 100, "wonderful food"))
    rest = RestApi(p)
    yield rest, p
    p.shutdown()


class TestValidation:
    def test_unknown_endpoint(self):
        with pytest.raises(ValidationError):
            validate_request("nope", {})

    def test_missing_required_field(self):
        with pytest.raises(ValidationError):
            validate_request("register", {"network": "facebook"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            validate_request("search", {"bogus": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValidationError):
            validate_request("trending", {"now": "late", "window_s": 10})

    def test_boolean_not_numeric(self):
        with pytest.raises(ValidationError):
            validate_request("trending", {"now": True, "window_s": 10})

    def test_optional_fields_may_be_absent(self):
        validate_request("search", {})

    def test_response_envelopes(self):
        ok = ApiResponse.ok({"x": 1}).as_dict()
        assert ok == {"status": "ok", "data": {"x": 1}}
        err = ApiResponse.fail("boom").as_dict()
        assert err == {"status": "error", "error": "boom"}
        coded = ApiResponse.fail("boom", code="bad_request").as_dict()
        assert coded == {
            "status": "error",
            "error": {"code": "bad_request", "message": "boom"},
        }


class TestEndpoints:
    def test_register_flow(self, api):
        rest, _p = api
        out = rest.handle(
            "register",
            {"network": "facebook", "network_user_id": "fb_1",
             "password": "pw", "now": 0.0},
        )
        assert out["status"] == "ok"
        assert out["data"]["user_id"] == 1
        assert out["data"]["linked_networks"] == ["facebook"]

    def test_register_bad_password_is_error_envelope(self, api):
        rest, _p = api
        out = rest.handle(
            "register",
            {"network": "facebook", "network_user_id": "fb_1",
             "password": "bad", "now": 0.0},
        )
        assert out["status"] == "error"
        assert out["error"]["code"] == "auth_failed"
        assert "credentials" in out["error"]["message"]

    def test_unknown_endpoint_is_error_envelope(self, api):
        rest, _p = api
        out = rest.handle("teleport", {})
        assert out["status"] == "error"
        assert out["error"]["code"] == "unknown_endpoint"

    def test_search_non_personalized(self, api):
        rest, _p = api
        out = rest.handle("search", {"sort_by": "hotness", "limit": 5})
        assert out["status"] == "ok"
        assert out["data"]["personalized"] is False
        assert out["data"]["pois"][0]["name"] == "Taverna"

    def test_search_personalized(self, api):
        rest, p = api
        rest.handle(
            "register",
            {"network": "facebook", "network_user_id": "fb_1",
             "password": "pw", "now": 1000.0},
        )
        p.collect(now=1000)
        out = rest.handle("search", {"friend_ids": [2, 3, 4, 5], "limit": 5})
        assert out["status"] == "ok"
        assert out["data"]["personalized"] is True
        assert out["data"]["pois"][0]["poi_id"] == 1
        assert out["data"]["latency_ms"] > 0

    def test_search_with_bbox(self, api):
        rest, _p = api
        out = rest.handle(
            "search", {"bbox": [37.9, 23.6, 38.1, 23.8], "sort_by": "hotness"}
        )
        assert out["status"] == "ok"
        assert len(out["data"]["pois"]) == 1
        out2 = rest.handle(
            "search", {"bbox": [40.0, 20.0, 41.0, 21.0], "sort_by": "hotness"}
        )
        assert out2["data"]["pois"] == []

    def test_trending(self, api):
        rest, _p = api
        out = rest.handle("trending", {"now": 1000, "window_s": 900})
        assert out["status"] == "ok"
        assert out["data"]["pois"][0]["name"] == "Taverna"

    def test_push_gps(self, api):
        rest, p = api
        out = rest.handle(
            "push_gps",
            {"points": [
                {"user_id": 1, "lat": 37.98, "lon": 23.73, "timestamp": 10},
                {"user_id": 1, "lat": 37.99, "lon": 23.74, "timestamp": 20},
            ]},
        )
        assert out["status"] == "ok"
        assert out["data"]["stored"] == 2
        assert p.gps_repository.count() == 2

    def test_friends_endpoint(self, api):
        rest, p = api
        rest.handle(
            "register",
            {"network": "facebook", "network_user_id": "fb_1",
             "password": "pw", "now": 1000.0},
        )
        p.collect(now=1000)
        out = rest.handle("friends", {"user_id": 1})
        assert out["status"] == "ok"
        assert len(out["data"]["facebook"]) == 4

    def test_blog_workflow_over_api(self, api):
        rest, p = api
        rest.handle(
            "register",
            {"network": "facebook", "network_user_id": "fb_1",
             "password": "pw", "now": 0.0},
        )
        day0 = 1_433_030_400
        points = [
            {"user_id": 1, "lat": 37.98, "lon": 23.73,
             "timestamp": day0 + 28_800 + i * 250}
            for i in range(8)
        ]
        rest.handle("push_gps", {"points": points})
        out = rest.handle(
            "generate_blog",
            {"user_id": 1, "day_start": day0, "day_end": day0 + 86_400},
        )
        assert out["status"] == "ok"
        blog_id = out["data"]["blog_id"]
        assert len(out["data"]["visits"]) == 1

        note = rest.handle(
            "update_blog",
            {"blog_id": blog_id, "visit_index": 0, "note": "great spot"},
        )
        assert note["data"]["visits"][0]["note"] == "great spot"

        published = rest.handle(
            "publish_blog",
            {"blog_id": blog_id, "network": "facebook", "now": 10.0},
        )
        assert published["data"]["published_to"] == ["facebook"]

        listed = rest.handle("get_blogs", {"user_id": 1})
        assert len(listed["data"]["blogs"]) == 1

    def test_endpoint_listing(self, api):
        rest, _p = api
        endpoints = rest.endpoints()
        assert "search" in endpoints
        assert "register" in endpoints
        assert "admin_describe" in endpoints
        assert "explain" in endpoints
        assert "admin_traces" in endpoints
        assert "admin_cache" in endpoints
        assert "admin_ingest" in endpoints
        assert "admin_timeseries" in endpoints
        assert "admin_health" in endpoints
        assert "admin_profile" in endpoints
        assert "admin_events" in endpoints
        assert "admin_supervisor" in endpoints
        assert "admin_admission" in endpoints
        assert len(endpoints) == 22

    def test_explain_endpoint(self, api):
        rest, p = api
        rest.handle(
            "register",
            {"network": "facebook", "network_user_id": "fb_1",
             "password": "pw", "now": 1000.0},
        )
        p.collect(now=1000)
        out = rest.handle("explain", {"friend_ids": [2, 3, 4, 5]})
        assert out["status"] == "ok"
        assert out["data"]["friends"] == 4
        assert out["data"]["records_total"] >= 1
        # Routed fan-out: at most one invoked region per friend; the
        # rest of the 8 regions are pruned client-side.
        assert 1 <= len(out["data"]["regions"]) <= 4
        assert len(out["data"]["regions"]) + out["data"]["regions_pruned"] == 8

    def test_explain_requires_friends(self, api):
        rest, _p = api
        out = rest.handle("explain", {})
        assert out["status"] == "error"

    def test_admin_describe(self, api):
        rest, _p = api
        out = rest.handle("admin_describe", {})
        assert out["status"] == "ok"
        assert out["data"]["pois"] == 1
        assert out["data"]["hbase"]["cluster"]["nodes"] == 4

    def test_admin_metrics_auto_wired(self, api):
        # The REST layer picks up the platform's own registry, so the
        # snapshot shape is there from the first request.
        rest, p = api
        out = rest.handle("admin_metrics", {})
        assert out["status"] == "ok"
        assert set(out["data"]) == {"counters", "gauges", "latencies"}
        # The admin_metrics request itself was counted (labeled series).
        again = rest.handle("admin_metrics", {})
        assert (
            again["data"]["counters"]['api.requests{endpoint=admin_metrics}'] >= 1
        )

    def test_handle_json_roundtrip(self, api):
        import json

        rest, _p = api
        out = json.loads(
            rest.handle_json("search", '{"sort_by": "hotness", "limit": 2}')
        )
        assert out["status"] == "ok"
        assert out["data"]["pois"][0]["name"] == "Taverna"

    def test_handle_json_malformed_body(self, api):
        import json

        rest, _p = api
        out = json.loads(rest.handle_json("search", "{not json"))
        assert out["status"] == "error"
        assert out["error"]["code"] == "bad_request"
        assert "malformed" in out["error"]["message"]

    def test_handle_json_non_object_body(self, api):
        import json

        rest, _p = api
        out = json.loads(rest.handle_json("search", "[1, 2]"))
        assert out["status"] == "error"

    def test_handle_json_empty_body(self, api):
        import json

        rest, _p = api
        out = json.loads(rest.handle_json("search", ""))
        assert out["status"] == "ok"

    def test_admin_metrics_with_sink(self, api):
        from repro.core.monitoring import PlatformMetrics

        rest, _p = api
        metrics = PlatformMetrics()
        metrics.increment("requests", 7)
        rest.attach_metrics(metrics)
        out = rest.handle("admin_metrics", {})
        assert out["data"]["counters"]["requests"] == 7


#: (endpoint, body, offending field): list fields with a wrong element
#: type, count or a non-finite number.  Each escaped ``handle_json`` as
#: a traceback (or, for the booleans, was served as friend 1) before
#: element validation.
MALFORMED_LISTS = [
    ("search", '{"friend_ids": [1], "bbox": [1, 2]}', "bbox"),
    ("search", '{"friend_ids": [1], "bbox": [1, 2, 3, "x"]}', "bbox"),
    ("search", '{"friend_ids": [1], "bbox": [37, 23, 38, 1e999]}', "bbox"),
    ("search", '{"friend_ids": [1.5]}', "friend_ids"),
    ("search", '{"friend_ids": [1e400]}', "friend_ids"),
    ("search", '{"friend_ids": [true]}', "friend_ids"),
    ("search", '{"keywords": [1]}', "keywords"),
    ("search", '{"friend_ids": [1], "keywords": ["food", null]}', "keywords"),
    ("trending", '{"now": 1, "window_s": 5, "friend_ids": [1.5]}',
     "friend_ids"),
    ("trending", '{"now": 1, "window_s": 5, "bbox": [1]}', "bbox"),
    ("explain", '{"friend_ids": [true]}', "friend_ids"),
    ("explain", '{"friend_ids": [1], "keywords": [1]}', "keywords"),
    ("push_gps", '{"points": [1]}', "points"),
]


class TestMalformedListFields:
    @pytest.fixture(
        scope="class",
        params=[PlatformConfig.small, _baseline_small],
        ids=["production", "baseline"],
    )
    def rest(self, request):
        p = MoDisSENSE(request.param())
        yield RestApi(p)
        p.shutdown()

    @pytest.mark.parametrize("endpoint,body,field", MALFORMED_LISTS)
    def test_structured_bad_request(self, rest, endpoint, body, field):
        import json

        out = json.loads(rest.handle_json(endpoint, body))
        assert out["status"] == "error"
        assert out["error"]["code"] == "bad_request"
        assert repr(field) in out["error"]["message"]

    def test_well_formed_lists_still_served(self, rest):
        out = rest.handle("search", {
            "friend_ids": [1, 2], "bbox": [37, 23.5, 38, 24],
            "keywords": ["food"],
        })
        assert out["status"] == "ok"

    def test_6000_ids_validate_in_one_cheap_pass(self):
        """``rest.validate`` is a traced layer of every request: the
        element check must stay far below the 1 ms the scan it guards
        costs (one C-level pass; ~0.1 ms here)."""
        import time

        request = {"friend_ids": list(range(1, 6001))}
        best = float("inf")
        for _ in range(20):
            start = time.perf_counter()
            validate_request("search", request)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3


class TestProfiles:
    """``PlatformConfig()`` is the stack ``benchmarks/e2e`` measures;
    ``baseline()`` is the only other profile."""

    def test_default_is_the_benchmark_profile(self):
        import dataclasses

        from benchmarks.e2e.profile import production_config

        default, measured = PlatformConfig(), production_config()
        for f in dataclasses.fields(PlatformConfig):
            if f.name != "cluster":
                assert (
                    getattr(default, f.name) == getattr(measured, f.name)
                ), f.name

    def test_small_platform_reports_all_on(self):
        from benchmarks.e2e.profile import assert_all_on

        p = MoDisSENSE(PlatformConfig.small())
        try:
            # explain reports top-k through the rounds a query ran.
            for uid in range(1, 65):
                p.visits_repository.store(VisitStruct(
                    user_id=uid, poi_id=1, timestamp=uid, grade=0.5,
                    poi_name="Taverna", lat=37.98, lon=23.73,
                    keywords=("food",),
                ))
            assert_all_on(RestApi(p))
        finally:
            p.shutdown()

    def test_baseline_reports_the_five_off(self):
        p = MoDisSENSE(_baseline_small())
        try:
            rest = RestApi(p)
            described = rest.handle("admin_describe", {})["data"]
            assert described["cache"]["enabled"] is False
            assert described["ingest"] == {"running": False}
            assert described["supervisor"] == {"enabled": False}
            assert described["admission"] == {"enabled": False}
            explained = rest.handle(
                "explain", {"friend_ids": list(range(1, 65))}
            )["data"]
            assert explained["topk"]["enabled"] is False
            # Tracing and telemetry only observe: on in both profiles.
            assert described["tracing"]["enabled"] is True
            assert described["telemetry"]["enabled"] is True
        finally:
            p.shutdown()


_PROM_LINE = (
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    # Label values may contain escaped quotes/backslashes/newlines
    # (\" \\ \n) but never a bare quote or backslash.
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$"
)


class TestAdminObservability:
    """The Prometheus-mode metrics endpoint and the traces endpoint."""

    def _run_personalized(self, rest, p):
        from repro.core.repositories.visits import VisitStruct

        p.poi_repository  # platform fixture already has one POI
        p.visits_repository.store(
            VisitStruct(user_id=2, poi_id=1, timestamp=100, grade=0.8,
                        poi_name="Taverna", lat=37.98, lon=23.73,
                        keywords=("food",))
        )
        out = rest.handle("search", {"friend_ids": [2]})
        assert out["status"] == "ok"
        return out

    def test_admin_metrics_prometheus_mode(self, api):
        import re

        rest, p = api
        self._run_personalized(rest, p)
        out = rest.handle("admin_metrics", {"format": "prometheus"})
        assert out["status"] == "ok"
        assert out["data"]["content_type"].startswith("text/plain")
        body = out["data"]["body"]
        assert body.endswith("\n")
        names = set()
        for line in body.splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                assert len(parts) == 4 and parts[3] in (
                    "counter", "gauge", "summary"
                ), line
                continue
            assert re.match(_PROM_LINE, line), line
            names.add(line.split("{")[0].split(" ")[0])
        # The personalized-query series made it through sanitization.
        assert "modissense_queries_personalized_total" in names
        assert "modissense_query_personalized_ms" in names
        assert "modissense_query_personalized_ms_count" in names

    def test_admin_metrics_bad_format_rejected(self, api):
        rest, _p = api
        out = rest.handle("admin_metrics", {"format": "xml"})
        assert out["status"] == "error"

    def test_admin_traces_returns_span_tree(self, api):
        rest, p = api
        self._run_personalized(rest, p)
        out = rest.handle("admin_traces", {"limit": 5})
        assert out["status"] == "ok"
        traces = out["data"]["traces"]
        assert traces, "personalized query must produce a trace"
        tree = traces[0]
        assert tree["root"]["name"] == "query.personalized"
        # Acceptance: >= 4 distinct stage names through admin_traces.
        stages = set(tree["stages"])
        assert {"route", "region.scan", "merge", "rank"} <= stages
        assert tree["span_count"] >= 5
        assert out["data"]["tracing"]["enabled"] is True

    def test_admin_traces_slow_log(self, api):
        rest, p = api
        # Force every query into the slow log, then check it appears.
        p.tracer.slow_threshold_ms = 0.0
        self._run_personalized(rest, p)
        out = rest.handle("admin_traces", {"slow": True})
        assert out["status"] == "ok"
        assert out["data"]["traces"]
        assert out["data"]["traces"][0]["root"]["name"] == "query.personalized"
