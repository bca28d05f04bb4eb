"""Declarative SLOs evaluated as multi-window burn rates.

Each :class:`SLOSpec` defines an objective over series in
the :class:`~repro.core.telemetry.timeseries.TimeSeriesStore` and is
evaluated Google-SRE style: the *burn rate* is the fraction of the error
budget consumed per unit of budgeted allowance —
``bad_fraction / (1 - target)`` — measured over a **fast** window (pages
on sudden breakage) and a **slow** window (catches sustained slow
bleed).  The SLO is

- ``critical`` when the fast-window burn reaches ``critical_burn``,
- ``warning`` when the slow-window burn reaches ``warning_burn``,
- ``healthy`` otherwise (including when a window saw no traffic).

Two spec kinds:

- ``ratio``: bad/total counter pair (e.g. ``regions.missing`` over
  ``regions.used``); bad fraction is the ratio of window deltas.
- ``threshold``: a gauge/derived series compared against a bound
  (e.g. ``query.personalized:p99 <= 1000``); bad fraction is the share
  of window scrape samples violating it.

State transitions emit structured alert events into the wide-event log
and ``slo.transitions`` counters, so an operator can replay exactly when
each budget started and stopped burning.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigError
from .timeseries import TimeSeriesStore

STATE_HEALTHY = "healthy"
STATE_WARNING = "warning"
STATE_CRITICAL = "critical"

_STATE_RANK = {STATE_HEALTHY: 0, STATE_WARNING: 1, STATE_CRITICAL: 2}


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Evaluated by :class:`SLOEngine` as multi-window burn rates: the
    fast window catches sudden breakage (page), the slow window catches
    sustained slow bleed (ticket).

    Two kinds:

    - ``"ratio"``: ``bad_series`` / ``total_series`` counter deltas over
      each window (e.g. missing regions over used regions);
    - ``"threshold"``: the share of window scrape samples where
      ``series`` violates ``threshold`` (``direction="le"`` means
      healthy when the value stays at or below the bound, ``"ge"`` when
      at or above it).
    """

    name: str
    kind: str  # "ratio" | "threshold"
    #: Objective: the good fraction must stay >= target; the error
    #: budget is ``1 - target``.
    target: float
    description: str = ""
    # ---- ratio kind ----
    bad_series: Optional[str] = None
    total_series: Optional[str] = None
    # ---- threshold kind ----
    series: Optional[str] = None
    threshold: Optional[float] = None
    direction: str = "le"
    # ---- burn-rate windows (simulated seconds) ----
    fast_window_s: float = 60.0
    slow_window_s: float = 600.0
    critical_burn: float = 8.0
    warning_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "threshold"):
            raise ConfigError(
                "SLO kind must be 'ratio' or 'threshold', got %r" % self.kind
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigError("SLO target must be in (0, 1)")
        if self.kind == "ratio" and not (self.bad_series and self.total_series):
            raise ConfigError(
                "ratio SLO %r needs bad_series and total_series" % self.name
            )
        if self.kind == "threshold" and (
            self.series is None or self.threshold is None
        ):
            raise ConfigError(
                "threshold SLO %r needs series and threshold" % self.name
            )
        if self.direction not in ("le", "ge"):
            raise ConfigError("SLO direction must be 'le' or 'ge'")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ConfigError("SLO windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ConfigError("fast_window_s must not exceed slow_window_s")
        if self.critical_burn <= 0 or self.warning_burn <= 0:
            raise ConfigError("SLO burn thresholds must be positive")


def default_slos() -> Tuple[SLOSpec, ...]:
    """The platform's eight stock SLOs."""
    return (
        SLOSpec(
            name="goodput",
            kind="ratio",
            bad_series="admission.rejected",
            total_series="admission.offered",
            target=0.80,
            description="Requests shed by admission control.  The 20% "
                        "budget is sized for brownout (shed-before-"
                        "collapse), not normal operation — any burn at "
                        "all means the platform is rejecting work.",
        ),
        SLOSpec(
            name="personalized_p99_latency",
            kind="threshold",
            series="query.personalized:p99",
            threshold=1000.0,
            direction="le",
            target=0.99,
            description="p99 personalized-query latency stays under 1 s "
                        "(the paper's Figure-2 headline).",
        ),
        SLOSpec(
            name="ingest_freshness",
            kind="threshold",
            series="ingest.freshness_age_s",
            threshold=0.5,
            direction="le",
            target=0.99,
            description="Applied-but-unpublished hotness is at most "
                        "0.5 s old (the PR-5 freshness SLO, now watched "
                        "in production rather than only in a bench).",
        ),
        SLOSpec(
            name="fanout_coverage",
            kind="ratio",
            bad_series="regions.missing",
            total_series="regions.used",
            target=0.999,
            description="Invoked regions that never answered within the "
                        "retry/hedge budget.",
        ),
        SLOSpec(
            name="degraded_query_rate",
            kind="ratio",
            bad_series="queries.degraded",
            total_series="queries.personalized",
            target=0.99,
            description="Personalized queries answered from partial "
                        "results.",
        ),
        SLOSpec(
            name="backpressure_shed_rate",
            kind="ratio",
            bad_series="ingest.shed",
            total_series="ingest.submitted",
            target=0.999,
            description="Ingest writes shed by full partition queues.",
        ),
        SLOSpec(
            name="storage_integrity",
            kind="ratio",
            bad_series="scrub.blocks_corrupt",
            total_series="scrub.blocks_scanned",
            target=0.999,
            description="Store-file blocks the scrubber found failing "
                        "their checksum (corrupt blocks are repaired "
                        "from the WAL or quarantined, never served).",
        ),
        SLOSpec(
            name="recovery_mttr",
            kind="threshold",
            series="supervisor.mttr_s",
            threshold=6.0,
            direction="le",
            target=0.99,
            description="Node-death detection + recovery time stays "
                        "within twice the default 3 s heartbeat lease "
                        "(no samples while nothing dies = healthy).",
        ),
    )


class SLOEngine:
    """Evaluates a set of SLO specs against the time-series store."""

    def __init__(
        self,
        specs: Sequence[Any],
        store: TimeSeriesStore,
        metrics: Optional[Any] = None,
        events: Optional[Any] = None,
    ) -> None:
        self.specs = list(specs)
        self.store = store
        self.metrics = metrics
        self.events = events
        self._lock = threading.Lock()
        self._states: Dict[str, str] = {
            spec.name: STATE_HEALTHY for spec in self.specs
        }
        #: threshold-kind cumulative tallies: name -> [bad, total].
        self._cum: Dict[str, List[float]] = {
            spec.name: [0.0, 0.0] for spec in self.specs
        }
        #: newest sample timestamp already folded into the cumulative
        #: tallies, per threshold SLO (avoids double counting).
        self._counted_until: Dict[str, float] = {}
        self.evaluations = 0
        self.last_result: Optional[Dict[str, Any]] = None

    # ---------------------------------------------------------- evaluation

    def evaluate(self, now: float) -> Dict[str, Any]:
        """One health pass at simulated time ``now``; idempotent for a
        given store state (re-evaluating without new scrapes changes
        nothing, so the REST path can call it freely)."""
        slos = []
        transitions = []
        overall = STATE_HEALTHY
        with self._lock:
            for spec in self.specs:
                result = self._evaluate_one(spec, now)
                old = self._states[spec.name]
                new = result["state"]
                if new != old:
                    transitions.append((spec, old, new, result))
                    self._states[spec.name] = new
                if _STATE_RANK[new] > _STATE_RANK[overall]:
                    overall = new
                slos.append(result)
            self.evaluations += 1
        for spec, old, new, result in transitions:
            self._announce(spec, old, new, result, now)
        out = {
            "state": overall,
            "evaluated_at": now,
            "slos": slos,
        }
        self.last_result = out
        return out

    def _evaluate_one(self, spec: Any, now: float) -> Dict[str, Any]:
        budget = 1.0 - spec.target
        if spec.kind == "ratio":
            fast_bad, fast_total = self._ratio_window(spec, now, spec.fast_window_s)
            slow_bad, slow_total = self._ratio_window(spec, now, spec.slow_window_s)
            cum_bad = self.store.value_at(spec.bad_series, now)
            cum_total = self.store.value_at(spec.total_series, now)
        else:  # threshold
            fast_bad, fast_total = self._threshold_window(
                spec, now - spec.fast_window_s, now
            )
            slow_bad, slow_total = self._threshold_window(
                spec, now - spec.slow_window_s, now
            )
            self._accumulate_threshold(spec, now)
            cum_bad, cum_total = self._cum[spec.name]

        fast_frac = (fast_bad / fast_total) if fast_total else 0.0
        slow_frac = (slow_bad / slow_total) if slow_total else 0.0
        fast_burn = fast_frac / budget if budget > 0 else 0.0
        slow_burn = slow_frac / budget if budget > 0 else 0.0
        if fast_burn >= spec.critical_burn:
            state = STATE_CRITICAL
        elif slow_burn >= spec.warning_burn:
            state = STATE_WARNING
        else:
            state = STATE_HEALTHY
        cum_frac = (cum_bad / cum_total) if cum_total else 0.0
        consumed = cum_frac / budget if budget > 0 else 0.0
        budget_remaining = max(0.0, 1.0 - consumed)
        no_data = fast_total == 0 and slow_total == 0
        if self.metrics is not None:
            self.metrics.set_gauge(
                "slo.burn_rate", fast_burn,
                labels={"slo": spec.name, "window": "fast"},
            )
            self.metrics.set_gauge(
                "slo.burn_rate", slow_burn,
                labels={"slo": spec.name, "window": "slow"},
            )
            self.metrics.set_gauge(
                "slo.budget_remaining", budget_remaining,
                labels={"slo": spec.name},
            )
        return {
            "name": spec.name,
            "kind": spec.kind,
            "description": spec.description,
            "state": state,
            "target": spec.target,
            "fast_burn": fast_burn,
            "slow_burn": slow_burn,
            "fast_window_s": spec.fast_window_s,
            "slow_window_s": spec.slow_window_s,
            "critical_burn": spec.critical_burn,
            "warning_burn": spec.warning_burn,
            "budget_remaining": budget_remaining,
            "bad_fast": fast_bad,
            "total_fast": fast_total,
            "no_data": no_data,
        }

    def _ratio_window(self, spec, now: float, window_s: float):
        since = now - window_s
        bad = self.store.delta(spec.bad_series, since, now)
        total = self.store.delta(spec.total_series, since, now)
        # A counter pair can momentarily disagree between scrapes; clamp
        # so a racing scrape never reports a >100% bad fraction.
        return min(bad, total), total

    def _threshold_window(self, spec, since: float, until: float):
        samples = self.store.window_samples(spec.series, since, until)
        if not samples:
            return 0.0, 0.0
        bad = 0
        for _t, vmin, vmax in samples:
            if spec.direction == "le":
                violated = vmax > spec.threshold
            else:
                violated = vmin < spec.threshold
            if violated:
                bad += 1
        return float(bad), float(len(samples))

    def _accumulate_threshold(self, spec, now: float) -> None:
        """Fold samples newer than the last evaluation into the
        cumulative budget tallies (each sample counted exactly once)."""
        floor = self._counted_until.get(spec.name, float("-inf"))
        samples = self.store.window_samples(spec.series, floor, now)
        if not samples:
            return
        bad, total = self._cum[spec.name]
        for t, vmin, vmax in samples:
            if spec.direction == "le":
                violated = vmax > spec.threshold
            else:
                violated = vmin < spec.threshold
            total += 1.0
            if violated:
                bad += 1.0
        self._cum[spec.name] = [bad, total]
        self._counted_until[spec.name] = max(t for t, _mn, _mx in samples)

    # -------------------------------------------------------------- alerts

    def _announce(self, spec, old: str, new: str, result, now: float) -> None:
        if self.metrics is not None:
            self.metrics.increment(
                "slo.transitions", labels={"slo": spec.name, "to": new}
            )
        if self.events is not None:
            self.events.emit(
                {
                    "type": "slo.transition",
                    "slo": spec.name,
                    "from": old,
                    "to": new,
                    "fast_burn": result["fast_burn"],
                    "slow_burn": result["slow_burn"],
                    "budget_remaining": result["budget_remaining"],
                    "at": now,
                },
                keep=True,
            )

    # -------------------------------------------------------------- status

    def states(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._states)

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "slos": len(self.specs),
                "states": dict(self._states),
                "evaluations": self.evaluations,
            }
