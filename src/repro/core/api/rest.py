"""The REST dispatcher the web/mobile clients would call.

Endpoints take and return plain dicts (the JSON bodies); the transport
layer (HTTP server farm) is outside the reproduction boundary.  Every
platform error is converted to a uniform error envelope so clients never
see stack traces.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple, Type

from ... import threadreg
from ...datagen.gps import GPSPoint
from ...errors import (
    AuthenticationError,
    ConfigError,
    CoprocessorError,
    OverloadedError,
    QueryCancelled,
    QueryDeadlineExceeded,
    QueryError,
    RegionUnavailableError,
    ReproError,
    StorageError,
    TableNotFoundError,
    ValidationError,
)
from ...geo import BoundingBox
from ..modules.query_answering import SearchQuery
from ..modules.trending import TrendingQuery
from ..platform import MoDisSENSE
from ..repositories.blogs import BlogEntry
from .json_format import ApiResponse, validate_request

#: Exception -> error code, most specific class first (the first
#: ``isinstance`` match wins, so subclasses must precede their bases).
ERROR_CODES: Tuple[Tuple[Type[ReproError], str], ...] = (
    (ValidationError, "bad_request"),
    (AuthenticationError, "auth_failed"),
    (QueryDeadlineExceeded, "deadline_exceeded"),
    (QueryCancelled, "cancelled"),
    (OverloadedError, "overloaded"),
    (RegionUnavailableError, "region_unavailable"),
    (QueryError, "bad_query"),
    (TableNotFoundError, "not_found"),
    (CoprocessorError, "coprocessor"),
    (ConfigError, "config"),
    (StorageError, "storage"),
)

#: Priority class each endpoint's requests are admitted under (the
#: admission layer rejects the tail of interactive > admin > background
#: first).  Unlisted endpoints default to interactive.
ENDPOINT_PRIORITY: Dict[str, str] = {
    "search": "interactive",
    "trending": "interactive",
    "friends": "interactive",
    "get_blogs": "interactive",
    "explain": "interactive",
    "register": "background",
    "link_network": "background",
    "push_gps": "background",
    "generate_blog": "background",
    "update_blog": "background",
    "publish_blog": "background",
    "admin_describe": "admin",
    "admin_metrics": "admin",
    "admin_traces": "admin",
    "admin_cache": "admin",
    "admin_ingest": "admin",
    "admin_timeseries": "admin",
    "admin_profile": "admin",
    "admin_events": "admin",
    "admin_supervisor": "admin",
}

#: Never gated: the operator must be able to read health and steer the
#: admission layer *during* the overload it is managing.
ADMISSION_EXEMPT = frozenset({"admin_admission", "admin_health"})

#: Endpoints whose wall latency feeds the AIMD limiters — the
#: latency-bearing query paths; metadata and admin calls would only
#: pollute the congestion signal.
LATENCY_FED = frozenset({"search", "trending"})


def error_code(exc: BaseException) -> str:
    """The stable machine-readable code for a platform exception."""
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal"


class RestApi:
    """JSON-in / JSON-out facade over a :class:`MoDisSENSE` platform."""

    def __init__(self, platform: MoDisSENSE) -> None:
        self.platform = platform
        self._routes: Dict[str, Callable] = {
            "register": self._register,
            "link_network": self._link_network,
            "search": self._search,
            "trending": self._trending,
            "push_gps": self._push_gps,
            "generate_blog": self._generate_blog,
            "get_blogs": self._get_blogs,
            "update_blog": self._update_blog,
            "publish_blog": self._publish_blog,
            "friends": self._friends,
            "admin_describe": self._admin_describe,
            "admin_metrics": self._admin_metrics,
            "admin_traces": self._admin_traces,
            "admin_cache": self._admin_cache,
            "admin_ingest": self._admin_ingest,
            "admin_timeseries": self._admin_timeseries,
            "admin_health": self._admin_health,
            "admin_profile": self._admin_profile,
            "admin_events": self._admin_events,
            "admin_supervisor": self._admin_supervisor,
            "admin_admission": self._admin_admission,
            "explain": self._explain,
        }
        #: The platform's registry; attach_metrics() overrides it, e.g.
        #: to segregate API-tier metrics.
        self._metrics = platform.metrics

    def handle(self, endpoint: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request; always returns a response envelope.

        Every non-exempt request acquires an admission ticket first —
        a rejection is the ``overloaded`` envelope (HTTP 429's JSON
        twin, ``retry_after_s`` included) and the handler never runs.
        A ``baseline()`` platform has no controller and admits all.
        """
        # Attribute profiler samples taken during this request to the
        # REST tier (restores the caller's component on the way out).
        previous_component = threadreg.push_component("rest")
        ticket = None
        started = 0.0
        try:
            handler = self._routes.get(endpoint)
            if handler is None:
                return ApiResponse.fail(
                    "unknown endpoint %r" % endpoint, code="unknown_endpoint"
                ).as_dict()
            validate_request(endpoint, request)
            admission = self.platform.admission
            if admission is not None and endpoint not in ADMISSION_EXEMPT:
                ticket = admission.admit(
                    ENDPOINT_PRIORITY.get(endpoint, "interactive"),
                    client_id=request.get("client_id"),
                )
                started = time.perf_counter()
            self._metrics.increment(
                "api.requests", labels={"endpoint": endpoint}
            )
            return ApiResponse.ok(handler(request)).as_dict()
        except ReproError as exc:
            code = error_code(exc)
            self._metrics.increment(
                "api.errors", labels={"endpoint": endpoint}
            )
            self._metrics.increment(
                "api.errors_by_code",
                labels={"endpoint": endpoint, "code": code},
            )
            return ApiResponse.fail(
                str(exc),
                code=code,
                retry_after_s=getattr(exc, "retry_after_s", None),
            ).as_dict()
        finally:
            if ticket is not None:
                ticket.finish(
                    (time.perf_counter() - started) * 1e3
                    if endpoint in LATENCY_FED
                    else None
                )
            threadreg.pop_component(previous_component)

    def handle_json(self, endpoint: str, body: str) -> str:
        """Wire-format variant: JSON string in, JSON string out.

        A malformed body is an error envelope, never an exception — the
        same contract HTTP clients get from the real server farm.
        """
        import json

        try:
            request = json.loads(body) if body.strip() else {}
        except json.JSONDecodeError as exc:
            return json.dumps(
                ApiResponse.fail(
                    "malformed JSON: %s" % exc, code="bad_request"
                ).as_dict()
            )
        if not isinstance(request, dict):
            return json.dumps(
                ApiResponse.fail(
                    "request body must be a JSON object", code="bad_request"
                ).as_dict()
            )
        return json.dumps(self.handle(endpoint, request))

    def endpoints(self) -> List[str]:
        return sorted(self._routes)

    # ----------------------------------------------------------- handlers

    def _register(self, req: Dict) -> Dict:
        user = self.platform.register_user(
            req["network"], req["network_user_id"], req["password"], req["now"]
        )
        return {
            "user_id": user.user_id,
            "display_name": user.display_name,
            "linked_networks": user.linked_networks,
        }

    def _link_network(self, req: Dict) -> Dict:
        user = self.platform.user_management.link_network(
            req["user_id"],
            req["network"],
            req["network_user_id"],
            req["password"],
            req["now"],
        )
        return {
            "user_id": user.user_id,
            "linked_networks": user.linked_networks,
        }

    def _search(self, req: Dict) -> Dict:
        query = SearchQuery(
            bbox=BoundingBox.from_tuple(req["bbox"]) if req.get("bbox") else None,
            keywords=tuple(req.get("keywords") or ()),
            friend_ids=tuple(req.get("friend_ids") or ()),
            since=req.get("since"),
            until=req.get("until"),
            sort_by=req.get("sort_by", "interest"),
            limit=req.get("limit", 10),
            deadline_ms=req.get("deadline_ms"),
        )
        result = self.platform.search(query)
        return {
            "personalized": result.personalized,
            "latency_ms": result.latency_ms,
            # Partial-result disclosure: clients must be able to tell an
            # exact answer from one missing failed regions' visits.
            "degraded": result.degraded,
            "coverage": result.coverage,
            "missing_regions": list(result.missing_regions),
            "pois": [
                {
                    "poi_id": p.poi_id,
                    "name": p.name,
                    "lat": p.lat,
                    "lon": p.lon,
                    "score": p.score,
                    "visit_count": p.visit_count,
                }
                for p in result.pois
            ],
        }

    def _trending(self, req: Dict) -> Dict:
        query = TrendingQuery(
            now=req["now"],
            window_s=req["window_s"],
            bbox=BoundingBox.from_tuple(req["bbox"]) if req.get("bbox") else None,
            friend_ids=tuple(req.get("friend_ids") or ()),
            limit=req.get("limit", 5),
        )
        result = self.platform.trending_events(query)
        return {
            "pois": [
                {"poi_id": p.poi_id, "name": p.name, "score": p.score}
                for p in result.pois
            ]
        }

    def _push_gps(self, req: Dict) -> Dict:
        points = [
            GPSPoint(
                user_id=p["user_id"],
                lat=p["lat"],
                lon=p["lon"],
                timestamp=p["timestamp"],
            )
            for p in req["points"]
        ]
        stored = self.platform.push_gps(points)
        return {"stored": stored}

    def _generate_blog(self, req: Dict) -> Dict:
        blog = self.platform.generate_blog(
            req["user_id"], req["day_start"], req["day_end"]
        )
        return self._blog_to_dict(blog)

    def _get_blogs(self, req: Dict) -> Dict:
        blogs = self.platform.blogs_repository.for_user(req["user_id"])
        return {"blogs": [self._blog_to_dict(b) for b in blogs]}

    def _update_blog(self, req: Dict) -> Dict:
        blog_module = self.platform.blog
        blog_id = req["blog_id"]
        if req.get("new_order") is not None:
            blog = blog_module.reorder_visits(blog_id, req["new_order"])
        elif req.get("note") is not None:
            blog = blog_module.annotate_visit(
                blog_id, req["visit_index"], req["note"]
            )
        else:
            blog = blog_module.edit_visit_times(
                blog_id, req["visit_index"], req["arrival"], req["departure"]
            )
        return self._blog_to_dict(blog)

    def _publish_blog(self, req: Dict) -> Dict:
        blog = self.platform.blog.publish(
            req["blog_id"], req["network"], req["now"]
        )
        return self._blog_to_dict(blog)

    def attach_metrics(self, metrics) -> None:
        """Expose a :class:`~repro.core.monitoring.PlatformMetrics`
        through the ``admin_metrics`` endpoint."""
        self._metrics = metrics

    def _explain(self, req: Dict) -> Dict:
        """Per-region execution profile of a personalized query."""
        query = SearchQuery(
            bbox=BoundingBox.from_tuple(req["bbox"]) if req.get("bbox") else None,
            keywords=tuple(req.get("keywords") or ()),
            friend_ids=tuple(req["friend_ids"]),
            since=req.get("since"),
            until=req.get("until"),
        )
        return self.platform.query_answering.explain_personalized(query)

    def _admin_describe(self, req: Dict) -> Dict:
        return self.platform.describe()

    def _admin_metrics(self, req: Dict) -> Dict:
        """Metrics registry: JSON snapshot, or Prometheus text
        exposition when ``format`` is ``"prometheus"`` (the body plus
        the content type a scrape endpoint must serve)."""
        fmt = req.get("format", "json")
        if fmt == "prometheus":
            return {
                "content_type": "text/plain; version=0.0.4; charset=utf-8",
                "body": self._metrics.to_prometheus(),
            }
        if fmt != "json":
            raise ValidationError(
                "format must be 'json' or 'prometheus', got %r" % fmt
            )
        return self._metrics.snapshot()

    def _admin_cache(self, req: Dict) -> Dict:
        """Caching-layer state: per-cache counters, occupancy and the
        coalescer's totals.  ``clear`` drops every entry of both caches
        (counted as invalidations) — the operator's big red button after
        an out-of-band data fix."""
        platform = self.platform
        scan_cache = platform.scan_cache
        hot_poi_cache = platform.hot_poi_cache
        if req.get("clear"):
            if scan_cache is not None:
                scan_cache.clear()
            if hot_poi_cache is not None:
                hot_poi_cache.clear()
        single_flight = platform.query_answering.single_flight
        return {
            "enabled": scan_cache is not None,
            "scan": scan_cache.stats() if scan_cache is not None else None,
            "hot_poi": (
                hot_poi_cache.stats() if hot_poi_cache is not None else None
            ),
            "coalescing": {
                "enabled": single_flight is not None,
                "coalesced_total": (
                    single_flight.coalesced_total
                    if single_flight is not None
                    else 0
                ),
                "in_flight": (
                    single_flight.in_flight()
                    if single_flight is not None
                    else 0
                ),
            },
        }

    def _admin_ingest(self, req: Dict) -> Dict:
        """Streaming-ingest tier state: queue depths, partition map,
        counters, rebalance history and incremental-HotIn stats.

        ``rebalance`` forces a load-aware repartition check outside the
        scheduler's cadence; ``reconcile`` (with ``since``/``until``)
        runs the verify-and-repair pass on demand — the operator's
        answer to "is hotness drifting?".
        """
        ingest = self.platform.ingest
        if ingest is None:
            return {"enabled": False}
        out: Dict[str, Any] = {"enabled": True}
        if req.get("rebalance"):
            out["rebalance"] = ingest.maybe_rebalance(force=True)
        if req.get("reconcile"):
            since = req.get("since")
            until = req.get("until")
            if since is None or until is None:
                raise ValidationError(
                    "reconcile requires 'since' and 'until'"
                )
            report = self.platform.reconcile_hotin(since, until)
            out["reconcile"] = {
                "window": list(report.window),
                "visits_scanned": report.visits_scanned,
                "pois_checked": report.pois_checked,
                "mismatched": report.mismatched,
                "repaired": report.repaired,
                "pois_updated": report.pois_updated,
                "in_sync": report.in_sync,
            }
        out["stats"] = ingest.stats()
        return out

    def _admin_supervisor(self, req: Dict) -> Dict:
        """Self-healing supervisor state: lease table, recovery history
        and on-demand drills.

        ``drill`` runs a live recovery drill (crash a node — ``node``
        picks which, default the highest-id live one — then heal it and
        report the measured MTTR); ``scrub`` forces an immediate
        scrub-and-repair pass.  ``limit`` bounds the history returned.
        """
        supervisor = self.platform.supervisor
        if supervisor is None:
            return {"enabled": False}
        out: Dict[str, Any] = {"enabled": True}
        if req.get("drill"):
            out["drill"] = supervisor.force_drill(req.get("node"))
        if req.get("scrub"):
            out["scrub"] = supervisor.force_scrub()
        limit = req.get("limit", 20)
        out["leases"] = supervisor.lease_table()
        out["history"] = supervisor.recovery_history[-limit:]
        out["describe"] = supervisor.describe()
        return out

    def _admin_admission(self, req: Dict) -> Dict:
        """Admission-controller state and drill controls.

        ``force_level`` pins the brownout ladder at a rung (0–5) until
        ``reset`` releases it — the operator's manual brownout and the
        overload drill's lever.  Never gated by admission itself: the
        controls must work *during* the overload they manage.
        """
        admission = self.platform.admission
        if admission is None:
            return {"enabled": False}
        if req.get("force_level") is not None:
            admission.force_level(req["force_level"])
        if req.get("reset"):
            admission.reset()
        return admission.describe()

    def _admin_traces(self, req: Dict) -> Dict:
        """Recent span trees (newest first); ``slow`` selects the
        slow-query log instead of the main ring buffer.

        ``slow_threshold_ms`` retunes the slow-query log's cutoff at
        runtime (subsequent traces only; the startup default comes from
        ``TracingConfig.slow_query_threshold_ms``)."""
        tracer = self.platform.tracer
        threshold = req.get("slow_threshold_ms")
        if threshold is not None:
            if threshold < 0:
                raise ValidationError(
                    "slow_threshold_ms cannot be negative"
                )
            tracer.slow_threshold_ms = float(threshold)
        limit = req.get("limit")
        if req.get("slow"):
            traces = tracer.slow_queries(limit)
        else:
            traces = tracer.recent_traces(limit)
        return {"traces": traces, "tracing": tracer.describe()}

    def _admin_timeseries(self, req: Dict) -> Dict:
        """Scraped metric history from the telemetry store.

        With ``name``: that series' samples — raw ``[t, value]`` pairs
        by default, or ``[bucket, count, sum, min, max, last]`` rollup
        rows when ``resolution`` selects one.  Without ``name``: the
        series directory (optionally filtered by ``prefix``).
        """
        telemetry = self.platform.telemetry
        if telemetry is None:
            return {"enabled": False}
        store = telemetry.store
        name = req.get("name")
        if name is None:
            return {
                "enabled": True,
                "series": store.names(prefix=req.get("prefix")),
                "store": store.describe(),
            }
        return {
            "enabled": True,
            "name": name,
            "kind": store.kind_of(name),
            "resolution": req.get("resolution"),
            "samples": store.query(
                name,
                resolution=req.get("resolution"),
                since=req.get("since"),
                until=req.get("until"),
                limit=req.get("limit"),
            ),
        }

    def _admin_health(self, req: Dict) -> Dict:
        """SLO-driven health verdict: overall state plus per-SLO burn
        rates and remaining error budget."""
        telemetry = self.platform.telemetry
        if telemetry is None:
            return {"enabled": False, "state": "healthy", "slos": []}
        out = telemetry.health()
        out["enabled"] = True
        return out

    def _admin_profile(self, req: Dict) -> Dict:
        """Continuous-profiler snapshot: folded flamegraph stacks plus
        per-component attribution.  ``reset`` clears accumulated samples
        after reading (profile-per-experiment workflows)."""
        telemetry = self.platform.telemetry
        profiler = telemetry.profiler if telemetry is not None else None
        if profiler is None:
            return {"enabled": False}
        out = {
            "enabled": True,
            "stats": profiler.stats(),
            "folded": profiler.folded(
                limit=req.get("limit"), component=req.get("component")
            ),
        }
        if req.get("reset"):
            profiler.reset()
        return out

    def _admin_events(self, req: Dict) -> Dict:
        """Wide-event log: tail-sampled canonical events, newest first;
        ``interesting`` restricts to the always-kept ring."""
        telemetry = self.platform.telemetry
        if telemetry is None:
            return {"enabled": False, "events": []}
        return {
            "enabled": True,
            "events": telemetry.events.query(
                event_type=req.get("type"),
                interesting_only=bool(req.get("interesting")),
                limit=req.get("limit"),
            ),
            "stats": telemetry.events.stats(),
        }

    def _friends(self, req: Dict) -> Dict:
        user_id = req["user_id"]
        if req.get("network"):
            friends = self.platform.social_info.get_friends(
                user_id, req["network"]
            )
            payload = {req["network"]: friends}
        else:
            payload = self.platform.social_info.get_all_friends(user_id)
        return {
            network: [
                {"id": f.network_user_id, "name": f.name, "picture": f.picture_url}
                for f in friend_list
            ]
            for network, friend_list in payload.items()
        }

    @staticmethod
    def _blog_to_dict(blog: BlogEntry) -> Dict:
        return {
            "blog_id": blog.blog_id,
            "user_id": blog.user_id,
            "day": blog.day,
            "title": blog.title,
            "published_to": list(blog.published_to),
            "visits": [v.as_dict() for v in blog.visits],
        }
