"""Self-healing cluster supervision: the master's side of HBase.

Everything before this module *modeled* failure handling: ``fail_node``
moved regions instantly (a test harness playing master) and nothing
checked that bytes on "disk" stayed the bytes that were written.  The
:class:`ClusterSupervisor` closes the loop the way a real deployment
does:

- **Heartbeat leases.**  Every region server renews a lease at each
  supervisor tick (driven by the platform scheduler).  A crashed node —
  :meth:`HBaseCluster.crash_node`, including crashes injected by the
  fault injector's node schedule — simply stops renewing; after
  ``LEASE_TIMEOUT_S`` of silence the supervisor declares it dead.
  Detection is therefore *observational* (missed heartbeats), not
  oracular, and detection latency is the lease timeout, exactly as in
  ZooKeeper-based HBase.

- **WAL-split recovery.**  On death the supervisor splits the dead
  server's write-ahead log by region (:meth:`ServerWAL.split_by_region`),
  reassigns the stranded regions to survivors with load-aware (LPT)
  placement rather than blind round-robin — the cluster moves each
  region's records with it — replays each region's
  committed-but-unflushed suffix into a fresh memstore, and reopens the
  region.  Fan-out coverage returns to 1.0 with answers byte-identical
  to a never-failed cluster — no manual ``recover_node`` involved.

- **Scrub-and-repair.**  A scheduled scrubber re-checksums every
  store-file block and WAL tail.  Corrupt blocks are rebuilt from the
  WAL (live tail + flush archive) and accepted only when the rebuilt
  bytes reproduce the original CRC; unrepairable blocks are quarantined
  so reads fail loudly (:class:`~repro.errors.ChecksumError`) instead of
  serving rot.

The supervisor is policy only.  The cluster owns the topology and the
logs (DESIGN.md §10): it is asked for regions and their logs, and its
``reassign_regions`` carries each region's records to the new server.
It acts only on its ticks, so the manual ``fail_node``/``recover_node``
story the fault-tolerance tests use works beside it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ConfigError

__all__ = ["ClusterSupervisor"]

#: Simulated seconds between heartbeat-lease ticks.
HEARTBEAT_PERIOD_S = 1.0
#: A node whose lease is older than this (simulated seconds) is declared
#: dead and recovered.  Detection MTTR is bounded by ``LEASE_TIMEOUT_S +
#: HEARTBEAT_PERIOD_S`` when time advances in sub-lease steps; the
#: bench-gates CI job enforces MTTR at most twice this value.
LEASE_TIMEOUT_S = 3.0
#: Simulated seconds between storage-scrub passes.
SCRUB_PERIOD_S = 60.0


class ClusterSupervisor:
    """Heartbeat failure detection + WAL-split recovery + storage scrub.

    Parameters
    ----------
    hbase:
        The :class:`~repro.hbase.client.HBaseCluster` to supervise; the
        supervisor registers itself with it.
    metrics / tracer / event_log:
        Optional observability sinks (duck-typed ``PlatformMetrics``,
        ``Tracer`` and ``WideEventLog``); recovery and scrub work emits
        counters, spans and kept wide events through them.
    """

    def __init__(
        self,
        hbase: Any,
        metrics: Optional[Any] = None,
        tracer: Optional[Any] = None,
        event_log: Optional[Any] = None,
    ) -> None:
        self.hbase = hbase
        self._metrics = metrics
        self._tracer = tracer
        self._event_log = event_log
        #: node_id -> simulated time of the last renewed lease.
        self._leases: Dict[int, float] = {
            node.node_id: 0.0 for node in hbase.simulation.nodes
        }
        #: Nodes declared dead (lease expired) and not yet rejoined.
        self._dead: set = set()
        #: Completed recovery / drill records, oldest first.
        self.recovery_history: List[Dict[str, Any]] = []
        self._now = 0.0
        hbase.supervisor = self

    # -------------------------------------------------------- heartbeats

    def heartbeat_tick(self, now: float) -> None:
        """One supervisor tick: renew leases, detect deaths, heal.

        Live nodes renew; a node that cannot renew (crashed or failed)
        is declared dead once ``now - last_renewal > LEASE_TIMEOUT_S``,
        and its regions are recovered immediately in the same tick.
        """
        self._now = now
        live = set(self.hbase.simulation.live_nodes())
        for node_id in live:
            self._leases[node_id] = now
            if node_id in self._dead:
                self._dead.discard(node_id)
                self._emit({"type": "node.rejoined", "node": node_id})
        for node_id, last_seen in sorted(self._leases.items()):
            if node_id in live or node_id in self._dead:
                continue
            if now - last_seen <= LEASE_TIMEOUT_S:
                continue  # within its lease; maybe just slow
            self._dead.add(node_id)
            self._count("supervisor.lease_missed")
            self._emit(
                {
                    "type": "node.lease_missed",
                    "node": node_id,
                    "last_seen": last_seen,
                    "declared_dead_at": now,
                    "lease_timeout_s": LEASE_TIMEOUT_S,
                }
            )
            self._recover_dead_node(node_id, now, last_seen)
        self._set_gauge("supervisor.nodes_dead", float(len(self._dead)))

    # ---------------------------------------------------------- recovery

    def _recover_dead_node(
        self, node_id: int, now: float, last_seen: float
    ) -> Dict[str, Any]:
        """HBase-style dead-server processing: split, reassign, replay."""
        sim = self.hbase.simulation
        span = self._span("supervisor.recover_node", node=node_id)
        stranded = sim.regions_on(node_id)

        split_span = self._span("supervisor.wal_split", parent=span,
                                node=node_id)
        if split_span is not None:
            split = self.hbase.server_wal(node_id).split_by_region()
            split_span.tag("regions_with_edits", len(split))
            split_span.finish()

        mapping = self._place_on_survivors(stranded)
        # Each region's records move to its new server with it.
        self.hbase.reassign_regions(mapping)

        replayed_cells = 0
        recovered: List[Dict[str, Any]] = []
        for rid in stranded:
            target = mapping[rid]
            region = self.hbase.region(rid)
            replay_span = self._span("supervisor.wal_replay", parent=span,
                                     region=rid, node=target)
            applied = region.replay_cells(region.wal.replay())
            replayed_cells += applied
            if replay_span is not None:
                replay_span.tag("cells_replayed", applied)
                replay_span.finish()
            self._count("region.recovered")
            entry = {"region": rid, "node": target, "cells_replayed": applied}
            recovered.append(entry)
            self._emit(dict(entry, type="region.recovered",
                            from_node=node_id))

        # Detection cost (the lease the corpse held) plus replay cost at
        # the cost model's per-record rate: the drill's honest MTTR.
        mttr_s = (now - last_seen) + (
            replayed_cells * sim.cost_model.cost_per_record_s
        )
        self._count("supervisor.recoveries")
        self._set_gauge("supervisor.mttr_s", mttr_s)
        if span is not None:
            span.tag("regions_recovered", len(recovered))
            span.tag("cells_replayed", replayed_cells)
            span.tag("mttr_s", mttr_s)
            span.finish()
        record = {
            "node": node_id,
            "declared_dead_at": now,
            "last_seen": last_seen,
            "regions": recovered,
            "cells_replayed": replayed_cells,
            "mttr_s": mttr_s,
            "drill": False,
        }
        self.recovery_history.append(record)
        return record

    def _place_on_survivors(self, region_ids: List[int]) -> Dict[int, int]:
        """Load-aware placement: LPT over surviving servers.

        Each stranded region's weight is its approximate live-cell
        count; survivors start loaded with the regions they already
        host.  Heaviest region goes to the least-loaded survivor
        (lowest node id on ties) — the classic longest-processing-time
        heuristic, deterministic and within 4/3 of optimal balance.
        """
        sim = self.hbase.simulation
        survivors = sim.live_nodes()
        if not survivors:
            raise ConfigError("no live nodes to recover regions onto")

        placement = sim.region_placement
        weights = {
            region.region_id: sum(
                region.approx_rows(f) for f in region.families
            )
            for region in self.hbase.regions()
        }
        loads: Dict[int, int] = {n: 0 for n in survivors}
        for rid, weight in weights.items():
            if placement[rid] in loads:
                loads[placement[rid]] += weight
        weighted = sorted(
            ((weights[rid], rid) for rid in region_ids),
            key=lambda t: (-t[0], t[1]),
        )
        mapping: Dict[int, int] = {}
        for w, rid in weighted:
            target = min(survivors, key=lambda n: (loads[n], n))
            mapping[rid] = target
            loads[target] += w
        return mapping

    # ------------------------------------------------------------- scrub

    def scrub_tick(self, now: float) -> Dict[str, int]:
        """Scan every store file and WAL tail; repair or quarantine.

        Returns a summary of the pass.  Counters feed the
        ``storage_integrity`` SLO (corrupt blocks / scanned blocks);
        repairs and quarantines are kept wide events.
        """
        self._now = now
        span = self._span("supervisor.scrub")
        scanned = corrupt = repaired = quarantined = torn_tails = 0
        for region in self.hbase.regions():
            rid = region.region_id
            for family in sorted(region.families):
                for sf in region.store_files_for(family):
                    scanned += sf.block_count
                    bad = sf.verify()
                    if not bad:
                        continue
                    corrupt += len(bad)
                    for index in bad:
                        if self._repair_block(region, family, sf, index):
                            repaired += 1
                        else:
                            sf.quarantine_block(index)
                            quarantined += 1
                            self._count("scrub.quarantined")
                            self._emit(
                                {
                                    "type": "scrub.quarantine",
                                    "region": rid,
                                    "family": family,
                                    "file_id": sf.file_id,
                                    "block": index,
                                }
                            )
            dropped = region.wal.drop_torn_tail()
            if dropped:
                torn_tails += dropped
                self._count("scrub.wal_torn", dropped)
                self._emit(
                    {
                        "type": "scrub.wal_torn",
                        "region": rid,
                        "records_dropped": dropped,
                    }
                )
        self._count("scrub.blocks_scanned", scanned)
        if corrupt:
            self._count("scrub.blocks_corrupt", corrupt)
        if repaired:
            self._count("scrub.repaired", repaired)
        summary = {
            "blocks_scanned": scanned,
            "blocks_corrupt": corrupt,
            "blocks_repaired": repaired,
            "blocks_quarantined": quarantined,
            "wal_records_dropped": torn_tails,
        }
        if span is not None:
            for key, value in summary.items():
                span.tag(key, value)
            span.finish()
        return summary

    def _repair_block(
        self, region: Any, family: str, sf: Any, index: int
    ) -> bool:
        """Rebuild one corrupt block from the region's WAL records.

        Candidates are every logged cell of the right family inside the
        block's key range (live tail + flush archive, the latter being
        where flushed-and-truncated records went).  The rebuild is
        accepted only when it reproduces the block's original CRC —
        tried over every contiguous window of the right size, since the
        WAL may hold neighboring cells the block never contained.
        """
        rid = region.region_id
        server = region.wal.server
        first_key, last_key = sf.block_ranges()[index]
        candidates = [
            record.cell
            for record in (
                list(server.archived_for(rid)) + list(server.records_for(rid))
            )
            if record.is_valid()
            and record.cell.family == family
            and first_key <= record.cell.sort_key() <= last_key
        ]
        candidates.sort(key=lambda c: c.sort_key())
        # rebuild_block validates count + CRC, so try every contiguous
        # window, largest first (the exact-match case is the whole set).
        for size in range(len(candidates), 0, -1):
            for lo in range(0, len(candidates) - size + 1):
                if sf.rebuild_block(index, candidates[lo : lo + size]):
                    self._emit(
                        {
                            "type": "scrub.repair",
                            "region": rid,
                            "family": family,
                            "file_id": sf.file_id,
                            "block": index,
                            "cells": size,
                        }
                    )
                    return True
        return False

    # ------------------------------------------------------------- drills

    def force_drill(self, node_id: Optional[int] = None) -> Dict[str, Any]:
        """Run a recovery drill NOW: crash a node, heal it, report.

        Picks the highest-id live node when none is given (node 0 often
        hosts the most regions; drills should not be the most expensive
        possible recovery by default).  The crash is real — memstores
        drop, placement strands — and so is the recovery; the returned
        history record carries the measured MTTR.
        """
        sim = self.hbase.simulation
        live = sim.live_nodes()
        if len(live) < 2:
            raise ConfigError("a drill needs at least two live nodes")
        if node_id is None:
            node_id = live[-1]
        elif node_id not in live:
            raise ConfigError("node %r is not live" % node_id)
        self.hbase.crash_node(node_id)
        self._dead.add(node_id)
        record = self._recover_dead_node(node_id, self._now, self._now)
        record["drill"] = True
        return record

    def force_scrub(self) -> Dict[str, int]:
        """Run a scrub pass immediately (REST drill hook)."""
        return self.scrub_tick(self._now)

    # ------------------------------------------------------------ surface

    def lease_table(self) -> List[Dict[str, Any]]:
        """Current lease state of every supervised server."""
        live = set(self.hbase.simulation.live_nodes())
        return [
            {
                "node": node_id,
                "last_seen": last_seen,
                "live": node_id in live,
                "declared_dead": node_id in self._dead,
            }
            for node_id, last_seen in sorted(self._leases.items())
        ]

    def describe(self) -> Dict[str, Any]:
        return {
            "enabled": True,
            "heartbeat_period_s": HEARTBEAT_PERIOD_S,
            "lease_timeout_s": LEASE_TIMEOUT_S,
            "scrub_period_s": SCRUB_PERIOD_S,
            "supervised_regions": sum(1 for _ in self.hbase.regions()),
            "servers": len(self._leases),
            "dead_nodes": sorted(self._dead),
            "recoveries": len(self.recovery_history),
        }

    # ------------------------------------------------------------ helpers

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.increment(name, amount)

    def _set_gauge(self, name: str, value: float) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge(name, value)

    def _emit(self, event: Dict[str, Any]) -> None:
        if self._event_log is not None:
            self._event_log.emit(dict(event), keep=True)

    def _span(self, name: str, parent: Any = None, **tags: Any):
        if self._tracer is None or not getattr(self._tracer, "enabled", False):
            return None
        return self._tracer.span(name, parent=parent, **tags)
