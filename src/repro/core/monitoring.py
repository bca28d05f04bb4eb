"""Platform observability: counters, gauges and latency histograms.

A production deployment of the paper's architecture needs to see query
volume, per-path latencies and batch-job progress; this module provides
the metrics surface; the query-answering module records every search
into it.

The registry is **thread-safe**: concurrent REST clients, the ingest
appliers and the telemetry scraper all record into it, so every counter
bump and histogram record happens under a lock.  Metrics support
Prometheus-style labels (``query.personalized{regions="3"}``) and the
whole registry renders to the Prometheus text exposition format via
:meth:`PlatformMetrics.to_prometheus` for the ``admin_metrics``
endpoint.
"""

from __future__ import annotations

import math
import random as _random
import threading
from collections import deque
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ValidationError

#: Internal metric key: (name, sorted (label, value) pairs).
_MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _metric_key(name: str, labels: Optional[Mapping] = None) -> _MetricKey:
    if not labels:
        return (name, ())
    return (
        name,
        tuple(sorted((str(k), str(v)) for k, v in labels.items())),
    )


def _flat_name(key: _MetricKey) -> str:
    """Human/JSON-facing name: ``name`` or ``name{k=v,...}``."""
    name, labels = key
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % pair for pair in labels))


class LatencyHistogram:
    """Latency samples with percentile queries.

    Memory is bounded by reservoir sampling (Vitter's algorithm R, with
    a fixed seed for reproducibility): every recorded value has equal
    probability of residing in the reservoir, so percentile reads stay
    unbiased even when traffic trends over time.

    Thread-safe: concurrent :meth:`record` calls (one per client
    thread) serialize on an internal lock, so ``count`` and
    ``total`` are exact and the reservoir never corrupts.
    """

    def __init__(self, max_samples: int = 10_000) -> None:
        if max_samples < 10:
            raise ValidationError("max_samples must be >= 10")
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = []
        self._max = max_samples
        self._rng = _random.Random(0xC0FFEE)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        #: Trace-id exemplars: recent ``(value_ms, exemplar)`` pairs plus
        #: the exemplar of the all-time max, so a bad percentile links
        #: straight to a span tree in ``admin_traces``.
        self._exemplars: deque = deque(maxlen=8)
        self._max_exemplar: Optional[object] = None

    def record(self, value_ms: float, exemplar: Optional[object] = None) -> None:
        if value_ms < 0:
            raise ValidationError("latency cannot be negative")
        with self._lock:
            self.count += 1
            self.total += value_ms
            if value_ms >= self.max_value:
                self.max_value = value_ms
                if exemplar is not None:
                    self._max_exemplar = exemplar
            if exemplar is not None:
                self._exemplars.append((value_ms, exemplar))
            if len(self._samples) < self._max:
                self._samples.append(value_ms)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._max:
                    self._samples[slot] = value_ms
            self._sorted = None  # invalidate the percentile cache

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 < p <= 100) of recorded samples.

        Uses the *nearest-rank* definition: the value at (1-indexed)
        rank ``ceil(p/100 * N)`` of the sorted samples.  Deterministic
        on tiny sample sets: ``percentile(50)`` of ``[1, 2, 3, 4]`` is
        ``2`` (rank ``ceil(2.0) = 2``), and a single-sample histogram
        returns that sample for every ``p``.
        """
        if not 0.0 < p <= 100.0:
            raise ValidationError("percentile must be in (0, 100]")
        with self._lock:
            if not self._samples:
                return 0.0
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            rank = math.ceil(p / 100.0 * len(self._sorted))
            idx = min(len(self._sorted) - 1, max(0, rank - 1))
            return self._sorted[idx]

    def summary(self) -> Dict[str, float]:
        out = {
            "count": self.count,
            "mean_ms": self.mean,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "max_ms": self.max_value,
        }
        exemplars = self.exemplars()
        if exemplars:  # key present only when a producer supplied any
            out["exemplars"] = exemplars
        return out

    def exemplars(self) -> List[Dict[str, object]]:
        """Recent + max exemplars (``value_ms`` / ``trace_id`` rows)."""
        with self._lock:
            rows = list(self._exemplars)
            max_ex = self._max_exemplar
        out = [
            {"value_ms": value, "trace_id": ref} for value, ref in rows
        ]
        if max_ex is not None and all(r["trace_id"] != max_ex for r in out):
            out.append({"value_ms": self.max_value, "trace_id": max_ex})
        return out


class PlatformMetrics:
    """Thread-safe counters + gauges + histograms with label support.

    Every mutation runs under one registry lock (histogram recording
    additionally serializes on the histogram's own lock, so handing a
    histogram object to a hot loop stays safe).  Labels are free-form
    string pairs; a labeled metric and its unlabeled namesake are
    distinct series, exactly as in Prometheus.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_MetricKey, int] = {}
        self._gauges: Dict[_MetricKey, float] = {}
        self._histograms: Dict[_MetricKey, LatencyHistogram] = {}

    # ----------------------------------------------------------- counters

    def increment(
        self, name: str, amount: int = 1, labels: Optional[Mapping] = None
    ) -> None:
        key = _metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def counter(self, name: str, labels: Optional[Mapping] = None) -> int:
        key = _metric_key(name, labels)
        with self._lock:
            return self._counters.get(key, 0)

    # ------------------------------------------------------------- gauges

    def set_gauge(
        self, name: str, value: float, labels: Optional[Mapping] = None
    ) -> None:
        key = _metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def gauge(self, name: str, labels: Optional[Mapping] = None) -> float:
        key = _metric_key(name, labels)
        with self._lock:
            return self._gauges.get(key, 0.0)

    # --------------------------------------------------------- histograms

    def histogram(
        self, name: str, labels: Optional[Mapping] = None
    ) -> LatencyHistogram:
        key = _metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = LatencyHistogram()
            return hist

    def record_latency(
        self,
        name: str,
        value_ms: float,
        labels: Optional[Mapping] = None,
        exemplar: Optional[object] = None,
    ) -> None:
        self.histogram(name, labels).record(value_ms, exemplar=exemplar)

    # ------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, object]:
        """Everything, JSON-shaped, for a dashboard or the REST API.

        Labeled series render as ``name{k=v,...}`` keys alongside their
        unlabeled namesakes.
        """
        with self._lock:
            counters = {_flat_name(k): v for k, v in self._counters.items()}
            gauges = {_flat_name(k): v for k, v in self._gauges.items()}
            histograms = list(self._histograms.items())
        return {
            "counters": counters,
            "gauges": gauges,
            "latencies": {
                _flat_name(key): hist.summary() for key, hist in histograms
            },
        }

    def scrape_values(self) -> Dict[str, Tuple[str, float]]:
        """Flat ``name -> (kind, value)`` snapshot for the time-series
        scraper (:meth:`repro.core.telemetry.TimeSeriesStore.scrape`).

        Counters and gauges pass through; each histogram yields derived
        ``:count``/``:sum`` counters and ``:p50``/``:p95``/``:p99``/
        ``:max`` gauges, so percentile *history* is queryable even
        though the live registry only keeps a reservoir.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        out: Dict[str, Tuple[str, float]] = {}
        for key, value in counters:
            out[_flat_name(key)] = ("counter", float(value))
        for key, value in gauges:
            out[_flat_name(key)] = ("gauge", float(value))
        for key, hist in histograms:
            flat = _flat_name(key)
            out[flat + ":count"] = ("counter", float(hist.count))
            out[flat + ":sum"] = ("counter", hist.total)
            out[flat + ":p50"] = ("gauge", hist.percentile(50))
            out[flat + ":p95"] = ("gauge", hist.percentile(95))
            out[flat + ":p99"] = ("gauge", hist.percentile(99))
            out[flat + ":max"] = ("gauge", hist.max_value)
        return out

    def to_prometheus(self, prefix: str = "modissense") -> str:
        """The registry in Prometheus text exposition format (v0.0.4).

        Counters gain the conventional ``_total`` suffix, histograms
        render as summaries (``quantile`` labels + ``_sum``/``_count``),
        and metric names are sanitized to the Prometheus charset with
        ``prefix`` prepended.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())

        lines: List[str] = []
        typed: set = set()

        def emit(name: str, kind: str, labels, value) -> None:
            if name not in typed:
                lines.append("# TYPE %s %s" % (name, kind))
                typed.add(name)
            lines.append("%s%s %s" % (name, _prom_labels(labels), _prom_value(value)))

        for (name, labels), value in counters:
            emit("%s_%s_total" % (prefix, _prom_name(name)), "counter", labels, value)
        for (name, labels), value in gauges:
            emit("%s_%s" % (prefix, _prom_name(name)), "gauge", labels, value)
        for (name, labels), hist in histograms:
            base = "%s_%s_ms" % (prefix, _prom_name(name))
            if base not in typed:
                lines.append("# TYPE %s summary" % base)
                typed.add(base)
            for q, p in (("0.5", 50), ("0.95", 95), ("0.99", 99)):
                q_labels = (("quantile", q),) + labels
                lines.append(
                    "%s%s %s"
                    % (base, _prom_labels(q_labels), _prom_value(hist.percentile(p)))
                )
            lines.append(
                "%s_sum%s %s" % (base, _prom_labels(labels), _prom_value(hist.total))
            )
            lines.append(
                "%s_count%s %s" % (base, _prom_labels(labels), _prom_value(hist.count))
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name to the Prometheus charset."""
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_" or ch == ":":
            out.append(ch)
        else:
            out.append("_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        '%s="%s"' % (_prom_name(k), _prom_escape(v)) for k, v in labels
    )
    return "{%s}" % rendered


#: Label-value escapes per the text exposition format v0.0.4: backslash,
#: double-quote and newline — and nothing else.  Applied in a single
#: pass so an already-escaped backslash can never be re-escaped.
_PROM_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _prom_escape(value: str) -> str:
    return "".join(
        _PROM_LABEL_ESCAPES.get(ch, ch) for ch in str(value)
    )


def _prom_value(value) -> str:
    value = float(value)
    # Prometheus spells specials "NaN"/"+Inf"/"-Inf"; Python's repr says
    # "nan"/"inf" (and int(nan) raises), so special-case them first.
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
