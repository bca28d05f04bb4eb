"""The platform's JSON request/response format and validation."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...errors import ValidationError

_FLOAT_MAX = sys.float_info.max


@dataclass
class ApiResponse:
    """Uniform response envelope.

    Errors carry a machine-readable ``code`` alongside the human
    message; with a code set the envelope is the structured
    ``{"error": {"code", "message"}}`` shape clients can switch on.
    A codeless failure keeps the legacy string shape for callers that
    construct envelopes directly.
    """

    status: str  # "ok" | "error"
    data: Any = None
    error: Optional[str] = None
    code: Optional[str] = None
    #: Backoff hint (seconds) carried by overload rejections — the JSON
    #: twin of an HTTP 429's ``Retry-After`` header.  None (the usual
    #: case) keeps the envelope byte-identical to the pre-admission
    #: shape.
    retry_after_s: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"status": self.status}
        if self.status == "ok":
            out["data"] = self.data
        elif self.code is not None:
            out["error"] = {"code": self.code, "message": self.error}
            if self.retry_after_s is not None:
                out["error"]["retry_after_s"] = self.retry_after_s
        else:
            out["error"] = self.error
        return out

    @classmethod
    def ok(cls, data: Any) -> "ApiResponse":
        return cls(status="ok", data=data)

    @classmethod
    def fail(
        cls,
        message: str,
        code: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ) -> "ApiResponse":
        return cls(
            status="error",
            error=message,
            code=code,
            retry_after_s=retry_after_s,
        )


#: A bounding box on the wire: ``[min_lat, min_lon, max_lat, max_lon]``.
_BBOX = (list, False, (int, float), 4)

#: endpoint -> {field: (type(s), required)}; a list field appends its
#: element type(s) and, where fixed, its exact length.
REQUEST_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "register": {
        "network": (str, True),
        "network_user_id": (str, True),
        "password": (str, True),
        "now": ((int, float), True),
    },
    "link_network": {
        "user_id": (int, True),
        "network": (str, True),
        "network_user_id": (str, True),
        "password": (str, True),
        "now": ((int, float), True),
    },
    "search": {
        "bbox": _BBOX,
        "keywords": (list, False, str),
        "friend_ids": (list, False, int),
        "since": (int, False),
        "until": (int, False),
        "sort_by": (str, False),
        "limit": (int, False),
        # End-to-end deadline (ms): propagated through the fan-out and
        # armed as cooperative cancellation on every region scan.
        "deadline_ms": ((int, float), False),
        # Caller identity for per-client rate limiting (admission layer;
        # ignored when admission is off).
        "client_id": (str, False),
    },
    "trending": {
        "now": (int, True),
        "window_s": (int, True),
        "bbox": _BBOX,
        "friend_ids": (list, False, int),
        "limit": (int, False),
        "client_id": (str, False),
    },
    "push_gps": {
        "points": (list, True, dict),
        "client_id": (str, False),
    },
    "generate_blog": {
        "user_id": (int, True),
        "day_start": (int, True),
        "day_end": (int, True),
    },
    "get_blogs": {
        "user_id": (int, True),
    },
    "update_blog": {
        "blog_id": (int, True),
        "new_order": (list, False, int),
        "visit_index": (int, False),
        "arrival": (int, False),
        "departure": (int, False),
        "note": (str, False),
    },
    "publish_blog": {
        "blog_id": (int, True),
        "network": (str, True),
        "now": ((int, float), True),
    },
    "friends": {
        "user_id": (int, True),
        "network": (str, False),
    },
    "admin_describe": {},
    "admin_metrics": {
        "format": (str, False),
    },
    "admin_traces": {
        "limit": (int, False),
        "slow": (bool, False),
        "slow_threshold_ms": ((int, float), False),
    },
    "admin_timeseries": {
        "name": (str, False),
        "prefix": (str, False),
        "resolution": ((int, float), False),
        "since": ((int, float), False),
        "until": ((int, float), False),
        "limit": (int, False),
    },
    "admin_health": {},
    "admin_profile": {
        "limit": (int, False),
        "component": (str, False),
        "reset": (bool, False),
    },
    "admin_events": {
        "type": (str, False),
        "interesting": (bool, False),
        "limit": (int, False),
    },
    "admin_cache": {
        "clear": (bool, False),
    },
    "admin_ingest": {
        "rebalance": (bool, False),
        "reconcile": (bool, False),
        "since": (int, False),
        "until": (int, False),
    },
    "admin_supervisor": {
        "drill": (bool, False),
        "node": (int, False),
        "scrub": (bool, False),
        "limit": (int, False),
    },
    "admin_admission": {
        "force_level": (int, False),
        "reset": (bool, False),
    },
    "explain": {
        "bbox": _BBOX,
        "keywords": (list, False, str),
        "friend_ids": (list, True, int),
        "since": (int, False),
        "until": (int, False),
    },
}


#: One element of ``push_gps``'s ``points``.
GPS_POINT_SCHEMA: Dict[str, tuple] = {
    "user_id": (int, True),
    "lat": ((int, float), True),
    "lon": ((int, float), True),
    "timestamp": (int, True),
}


def validate_request(endpoint: str, request: Dict[str, Any]) -> Dict[str, Any]:
    """Check field presence and types against the endpoint's schema.

    Booleans are rejected where ints are expected (bool subclasses int
    in Python, which would let ``true`` slip into numeric fields), in
    list elements too.  ``push_gps`` checks every point against
    :data:`GPS_POINT_SCHEMA`, and ``update_blog`` requires the fields of
    the edit its body selects.
    """
    schema = REQUEST_SCHEMAS.get(endpoint)
    if schema is None:
        raise ValidationError("unknown endpoint %r" % endpoint)
    if not isinstance(request, dict):
        raise ValidationError("request body must be a JSON object")
    unknown = set(request) - set(schema)
    if unknown:
        raise ValidationError(
            "unknown fields %s for endpoint %r" % (sorted(unknown), endpoint)
        )
    _check_fields(schema, request, endpoint)
    if endpoint == "push_gps":
        for i, point in enumerate(request["points"]):
            _check_fields(GPS_POINT_SCHEMA, point, endpoint, "points[%d]." % i)
    elif endpoint == "update_blog" and request.get("new_order") is None:
        # Not a reorder: a ``note`` annotates one visit, anything else
        # edits that visit's times.
        needed = ["visit_index"]
        if request.get("note") is None:
            needed += ["arrival", "departure"]
        _check_fields({name: (int, True) for name in needed}, request, endpoint)
    return request


def _check_fields(
    schema: Dict[str, tuple], request: Dict[str, Any], endpoint: str,
    prefix: str = "",
) -> None:
    """Presence and type of each of ``schema``'s fields in ``request``;
    ``prefix`` names where a nested object sits in the body."""
    for name, (types, required, *element) in schema.items():
        if name not in request or request[name] is None:
            if required:
                raise ValidationError(
                    "missing required field %r for endpoint %r"
                    % (prefix + name, endpoint)
                )
            continue
        value = request[name]
        if isinstance(value, bool) and types in (int, (int, float)):
            raise ValidationError(
                "field %r must be numeric, got a boolean" % (prefix + name)
            )
        if not isinstance(value, types):
            raise ValidationError(
                "field %r has wrong type %s"
                % (prefix + name, type(value).__name__)
            )
        if element:
            _check_elements(name, value, *element)


def _check_elements(
    name: str, value: list, types: Any, length: Optional[int] = None
) -> None:
    """Every element of a list field has exactly one of ``types`` (so a
    bool never passes for an int), numbers are finite, and the list has
    ``length`` elements when that is fixed.  The type check is one
    C-level pass: ``friend_ids`` carries thousands of elements and
    validation is a traced layer of every request."""
    if length is not None and len(value) != length:
        raise ValidationError(
            "field %r must have exactly %d elements, got %d"
            % (name, length, len(value))
        )
    allowed = types if isinstance(types, tuple) else (types,)
    if not set(map(type, value)).issubset(allowed):
        raise ValidationError(
            "field %r must be a list of %s"
            % (name, " or ".join(t.__name__ for t in allowed))
        )
    if float in allowed and not all(
        -_FLOAT_MAX <= v <= _FLOAT_MAX for v in value
    ):
        raise ValidationError("field %r must hold finite numbers" % name)
