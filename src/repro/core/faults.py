"""Deterministic fault injection for the query fan-out path.

A production HBase deployment loses region servers routinely; the
paper's Figure 2/3 numbers implicitly assume every region answers every
query.  This module supplies the *failure side* of the resilience story:
a seedable :class:`FaultInjector` that can make region invocations
raise, straggle (simulated added latency) or return corrupt partials,
plus node-level fail/recover schedules that drive the cluster
simulation's :meth:`fail_node`/:meth:`recover_node` from inside the
query workload.

Determinism is the design center.  Every injection decision is derived
from ``hash((seed, kind, fanout_epoch, region_id, attempt))`` — never
from shared-RNG call order — so the same seed produces the same fault
pattern no matter how concurrent callers interleave their fan-outs,
and a chaos test that failed once replays exactly.

The recovery side (retries, backoff, hedged re-execution, circuit
breaker, graceful degradation) lives in
:meth:`repro.hbase.client.HBaseCluster.coprocessor_exec_routed`; the
injector only decides *what goes wrong*.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..config import FaultsConfig
from ..errors import ConfigError
from ..hbase.coprocessor import CorruptPartial

__all__ = [
    "FAULT_ERROR",
    "FAULT_HANG",
    "FAULT_CORRUPT",
    "FAULT_DISK",
    "Fault",
    "FaultInjector",
]

FAULT_ERROR = "error"
FAULT_HANG = "hang"
FAULT_CORRUPT = "corrupt"
FAULT_DISK = "disk_corruption"

#: Attempt index the client uses for hedged re-executions; hedges draw
#: their own fault decision so a hedge can itself fail.
HEDGE_ATTEMPT = -1

_SCHEDULE_ACTIONS = ("fail", "recover")

#: Integer namespaces for the derived RNG keys (ints hash identically
#: across processes; strings would vary with PYTHONHASHSEED).
_KEY_DECIDE = 1
_KEY_LOST = 2
_KEY_JITTER = 3
_KEY_DISK = 4


@dataclass(frozen=True)
class Fault:
    """One injected misbehavior for one region invocation attempt."""

    kind: str
    #: Simulated latency added by a hang fault (ms); 0 otherwise.
    latency_ms: float = 0.0


class FaultInjector:
    """Seedable, thread-safe source of injected region/node faults.

    Parameters
    ----------
    config:
        Rates and the seed; see :class:`repro.config.FaultsConfig`.
        Defaults to an *armed* config with zero rates (useful to engage
        the resilient fan-out without injecting anything).

    The cluster client calls :meth:`on_fanout_start` once per fan-out
    (applying any due node fail/recover schedule entries and bumping the
    decision epoch) and :meth:`decide` once per region attempt.  Node
    failure hooks (:meth:`on_node_failed` / :meth:`on_node_recovered`)
    are invoked by :class:`~repro.hbase.client.HBaseCluster` so the
    injector can model stale region locations and lost replicas.
    """

    def __init__(self, config: Optional[FaultsConfig] = None) -> None:
        self.config = config or FaultsConfig(enabled=True)
        self._lock = threading.Lock()
        self._epoch = 0
        #: region_id -> remaining one-shot injected errors.
        self._targeted: Dict[int, int] = {}
        #: region_id -> node whose failure made the region's data
        #: unavailable (cleared when that node recovers).
        self._lost_regions: Dict[int, int] = {}
        self._down_nodes: Set[int] = set()
        #: fanout epoch -> [(action, node_id)] applied at fan-out start.
        self._schedule: Dict[int, List[Tuple[str, int]]] = {}
        #: Applied schedule actions, for assertions and debugging.
        self.events: List[Tuple[int, str, int]] = []
        #: Optional wide-event log: applied schedule actions become
        #: ``fault.injected`` events (always kept) so an incident
        #: timeline shows *why* a node died mid-drill.
        self.event_log: Optional[Any] = None

    # ------------------------------------------------------------- state

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def epoch(self) -> int:
        return self._epoch

    def _rng(self, *key: int) -> random.Random:
        """A fresh RNG keyed on the seed plus ``key``.

        The key parts are all ints, and hashing an int tuple is
        deterministic across processes (``PYTHONHASHSEED`` only perturbs
        str/bytes hashing), so decisions never depend on thread
        interleaving or call order.
        """
        return random.Random(hash((self.config.seed,) + key))

    # --------------------------------------------------------- lifecycle

    def on_fanout_start(self, cluster: Any = None) -> int:
        """Advance the decision epoch; apply due node schedule entries.

        Returns the new epoch.  ``cluster`` receives the scheduled
        ``fail_node``/``recover_node`` calls; pass None to only tick.
        """
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            due = self._schedule.pop(epoch, [])
        for action, node_id in due:
            self.events.append((epoch, action, node_id))
            if self.event_log is not None:
                self.event_log.emit(
                    {
                        "type": "fault.injected",
                        "epoch": epoch,
                        "action": action,
                        "node": node_id,
                    },
                    keep=True,
                )
            if cluster is None:
                continue
            if action == "fail":
                if cluster.supervisor is not None:
                    # A supervised cluster gets the honest failure mode:
                    # the node crashes in place (regions stranded,
                    # memstores lost) and only the supervisor's
                    # heartbeat-lease recovery brings service back.
                    cluster.crash_node(node_id)
                else:
                    cluster.fail_node(node_id)
            else:
                cluster.recover_node(node_id)
        return epoch

    def schedule_node_event(self, at_fanout: int, action: str, node_id: int) -> None:
        """Queue a ``fail``/``recover`` of ``node_id`` to run right
        before fan-out number ``at_fanout`` (1-based, counted from the
        injector's attachment)."""
        if action not in _SCHEDULE_ACTIONS:
            raise ConfigError(
                "action must be one of %s, got %r" % (_SCHEDULE_ACTIONS, action)
            )
        if at_fanout <= self._epoch:
            raise ConfigError(
                "fan-out %d already happened (epoch is %d)"
                % (at_fanout, self._epoch)
            )
        with self._lock:
            self._schedule.setdefault(at_fanout, []).append((action, node_id))

    def break_region(self, region_id: int, times: int = 1) -> None:
        """Make the next ``times`` attempts on ``region_id`` raise."""
        if times < 1:
            raise ConfigError("times must be >= 1")
        with self._lock:
            self._targeted[region_id] = self._targeted.get(region_id, 0) + times

    def inject_disk_corruption(
        self,
        cluster: Any,
        table_name: str,
        events: int = 1,
        tear_tail: bool = False,
    ) -> List[Tuple[int, str, int, int]]:
        """Seeded bit rot: corrupt store-file blocks of ``table_name``.

        Picks ``events`` deterministic targets from the table's current
        store files (keyed on the seed + injector epoch, so the same
        seed damages the same blocks) and either flips bits inside one
        block (:meth:`StoreFile.corrupt_block`) or tears the file's tail
        (``tear_tail=True``, :meth:`StoreFile.tear_tail`).  The damage
        is *latent* — nothing fails until a read checksums the block or
        the scrubber's next pass finds it.  Returns the list of
        ``(region_id, family, file_id, block_index)`` targets hit;
        empty when the table has no store files yet (flush first).
        """
        if events < 1:
            raise ConfigError("events must be >= 1")
        table = cluster.table(table_name)
        candidates: List[Tuple[int, str, Any]] = []
        for region in table.regions:
            for family in sorted(region.families):
                for sf in region.store_files_for(family):
                    if len(sf) > 0:
                        candidates.append((region.region_id, family, sf))
        candidates.sort(key=lambda t: (t[0], t[1], t[2].file_id))
        if not candidates:
            return []
        hit: List[Tuple[int, str, int, int]] = []
        for i in range(events):
            rng = self._rng(_KEY_DISK, self._epoch, i)
            region_id, family, sf = candidates[rng.randrange(len(candidates))]
            if tear_tail:
                block_index = sf.block_count - 1
                sf.tear_tail()
            else:
                block_index = rng.randrange(sf.block_count)
                sf.corrupt_block(block_index)
            hit.append((region_id, family, sf.file_id, block_index))
            self.events.append((self._epoch, FAULT_DISK, region_id))
            if self.event_log is not None:
                self.event_log.emit(
                    {
                        "type": "fault.injected",
                        "action": FAULT_DISK,
                        "region": region_id,
                        "family": family,
                        "file_id": sf.file_id,
                        "block": block_index,
                        "torn": tear_tail,
                    },
                    keep=True,
                )
        return hit

    # ---------------------------------------------------- node-failure hooks

    def on_node_failed(self, node_id: int, moved_regions: Sequence[int]) -> None:
        """React to a region-server death.

        Models the two client-visible consequences: every moved region
        serves ``stale_location_errors`` injected errors (the client's
        region cache still points at the corpse), and a deterministic
        ``lost_region_fraction`` of the moved regions loses its data
        outright until the node recovers (the replica was also behind).
        """
        cfg = self.config
        moved = sorted(moved_regions)
        with self._lock:
            self._down_nodes.add(node_id)
            if cfg.stale_location_errors > 0:
                for region_id in moved:
                    self._targeted[region_id] = (
                        self._targeted.get(region_id, 0)
                        + cfg.stale_location_errors
                    )
            if cfg.lost_region_fraction > 0.0 and moved:
                k = max(1, round(cfg.lost_region_fraction * len(moved)))
                k = min(k, len(moved))
                lost = self._rng(_KEY_LOST, node_id, len(moved)).sample(moved, k)
                for region_id in lost:
                    self._lost_regions.setdefault(region_id, node_id)

    def on_node_recovered(self, node_id: int) -> None:
        """Clear the node's down marker and restore its lost regions."""
        with self._lock:
            self._down_nodes.discard(node_id)
            restored = [
                region_id
                for region_id, owner in self._lost_regions.items()
                if owner == node_id
            ]
            for region_id in restored:
                del self._lost_regions[region_id]
                # Stale-location errors for a region whose data just came
                # back should not outlive the failure they modeled.
                self._targeted.pop(region_id, None)

    def region_available(self, region_id: int) -> bool:
        """False while the region's data is lost to a node failure."""
        if not self._lost_regions:
            return True
        with self._lock:
            return region_id not in self._lost_regions

    def lost_regions(self) -> List[int]:
        with self._lock:
            return sorted(self._lost_regions)

    # ---------------------------------------------------------- decisions

    def decide(self, region_id: int, node_id: Optional[int], attempt: int) -> Optional[Fault]:
        """The fault (if any) for one region invocation attempt.

        Targeted one-shot breaks fire first; otherwise the configured
        rates are drawn deterministically from ``(seed, epoch, region,
        attempt)``.  Returns None for a clean attempt.
        """
        if not self.enabled:
            return None
        if self._targeted:
            with self._lock:
                remaining = self._targeted.get(region_id, 0)
                if remaining > 0:
                    if remaining == 1:
                        del self._targeted[region_id]
                    else:
                        self._targeted[region_id] = remaining - 1
                    return Fault(FAULT_ERROR)
        cfg = self.config
        total = cfg.region_error_rate + cfg.region_hang_rate + cfg.corrupt_rate
        if total <= 0.0:
            return None
        draw = self._rng(_KEY_DECIDE, self._epoch, region_id, attempt).random()
        if draw < cfg.region_error_rate:
            return Fault(FAULT_ERROR)
        if draw < cfg.region_error_rate + cfg.region_hang_rate:
            return Fault(FAULT_HANG, latency_ms=cfg.hang_ms)
        if draw < total:
            return Fault(FAULT_CORRUPT)
        return None

    def backoff_jitter_ms(self, region_id: int, attempt: int) -> float:
        """Deterministic jitter added to one retry's backoff delay.

        Keyed like :meth:`decide`, so replays reproduce the exact
        simulated timeline.  (Without an injector the client uses zero
        jitter — the clean path stays deterministic by construction.)
        """
        return (
            self._rng(_KEY_JITTER, self._epoch, region_id, attempt).random()
            * self.config.retry_jitter_ms
        )

    def corrupt(self, partial: Any) -> CorruptPartial:
        """The corrupt stand-in shipped instead of a region's partial."""
        return CorruptPartial(partial)

    # ------------------------------------------------------------ summary

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "seed": self.config.seed,
                "epoch": self._epoch,
                "rates": {
                    "error": self.config.region_error_rate,
                    "hang": self.config.region_hang_rate,
                    "corrupt": self.config.corrupt_rate,
                },
                "down_nodes": sorted(self._down_nodes),
                "lost_regions": sorted(self._lost_regions),
                "targeted_regions": dict(self._targeted),
                "scheduled_events": sum(len(v) for v in self._schedule.values()),
                "applied_events": list(self.events),
            }
