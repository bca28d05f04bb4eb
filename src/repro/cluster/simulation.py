"""Deterministic cluster timing simulation.

Why simulate instead of measure?  The paper's Figures 2 and 3 come from a
physical OpenStack cluster; a single Python process cannot reproduce
absolute numbers, but it *can* reproduce the mechanism that shapes them:

- each personalized query fans out into one coprocessor invocation per
  HBase region that holds queried friends' visits;
- an invocation's cost is dominated by the visit records it scans;
- invocations from one or many queries contend for the cluster's cores;
- the web server pays a merge cost proportional to the partial results.

:class:`ClusterSimulation` therefore runs a classic list scheduler over
simulated cores.  Region *results* are computed for real by the HBase
layer; only the clock is simulated.  The default :class:`CostModel`
constants are calibrated so a 5000-friend query on 16 dual-core nodes
lands just under one second, matching the paper's headline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import ClusterConfig
from ..errors import ConfigError
from .node import Node


@dataclass(frozen=True)
class CostModel:
    """Latency constants of the simulated deployment (all in seconds)."""

    rpc_latency_s: float = 0.0012
    cost_per_record_s: float = 9.0e-6
    #: Fixed cost of starting a coprocessor invocation.
    coprocessor_setup_s: float = 0.00035
    merge_cost_per_item_s: float = 1.5e-6
    #: Client-side cost of routing one key (friend) to its owning
    #: region before fan-out (a bisect over region start keys).
    route_cost_per_key_s: float = 3.0e-7

    @classmethod
    def from_config(cls, config: ClusterConfig) -> "CostModel":
        return cls(
            rpc_latency_s=config.rpc_latency_ms / 1e3,
            cost_per_record_s=config.cost_per_record_us / 1e6,
            merge_cost_per_item_s=config.merge_cost_per_item_us / 1e6,
        )

    def coprocessor_cost_s(self, records_scanned: int) -> float:
        """Compute time of one coprocessor invocation on a core."""
        return self.coprocessor_setup_s + records_scanned * self.cost_per_record_s

    def merge_cost_s(self, partial_results: int) -> float:
        """Web-server-side merge cost for ``partial_results`` items."""
        return partial_results * self.merge_cost_per_item_s

    def routing_cost_s(self, routed_keys: int) -> float:
        """Client-side cost of partitioning ``routed_keys`` keys across
        regions before the fan-out (the route-then-stream query path)."""
        return routed_keys * self.route_cost_per_key_s


@dataclass
class Task:
    """One unit of region-local work (a coprocessor invocation).

    ``records_scanned`` drives the region-side compute cost;
    ``results_returned`` — the partial aggregates shipped back — drives
    the web-server-side merge cost.  Aggregation inside the region is
    exactly what makes results much smaller than records (the paper's
    rationale for coprocessors).
    """

    region_id: int
    records_scanned: int
    results_returned: int = 0
    #: Query this task belongs to (for concurrent-query accounting).
    query_id: int = 0
    #: Extra simulated seconds this invocation spent on recovery work:
    #: failed attempts, retry backoff, injected hangs, hedge hops.  Zero
    #: on the clean path, so fault-free timelines are unchanged.
    extra_cost_s: float = 0.0


@dataclass
class QueryTimeline:
    """Simulated timing of one query's life."""

    query_id: int
    submit_at: float
    finish_at: float
    tasks: int
    records_scanned: int

    @property
    def latency_s(self) -> float:
        return self.finish_at - self.submit_at

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


class ClusterSimulation:
    """Places regions on nodes and schedules coprocessor work on cores.

    Regions are assigned round-robin, which mirrors HBase's balancer in
    the steady state and gives every node ``regions/nodes`` regions.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.cost_model = cost_model or CostModel.from_config(self.config)
        self.nodes: List[Node] = [
            Node(node_id=i, cores=self.config.cores_per_node)
            for i in range(self.config.num_nodes)
        ]
        self._region_to_node: Dict[int, int] = {}
        self._failed_nodes: set = set()

    # ---------------------------------------------------------- placement

    def place_regions(self, region_ids: Sequence[int]) -> Dict[int, int]:
        """Assign each region to a live node round-robin; returns the map."""
        live = [
            i for i in range(len(self.nodes)) if i not in self._failed_nodes
        ]
        if not live:
            raise ConfigError("no live nodes to place regions on")
        self._region_to_node = {
            region_id: live[i % len(live)]
            for i, region_id in enumerate(sorted(region_ids))
        }
        return dict(self._region_to_node)

    # ------------------------------------------------------ fault handling

    def fail_node(self, node_id: int) -> List[int]:
        """Take a node down; its regions move to the survivors.

        Mirrors HBase's master behavior on region-server death: the dead
        server's regions are reassigned (round-robin here) and service
        continues at reduced capacity.  Returns the moved region ids.
        """
        if not 0 <= node_id < len(self.nodes):
            raise ConfigError("no node %r" % node_id)
        if node_id in self._failed_nodes:
            return []
        # Validate BEFORE mutating: a rejected failure must leave the
        # node live, not marked failed with its regions stranded.
        survivors = [
            i
            for i in range(len(self.nodes))
            if i not in self._failed_nodes and i != node_id
        ]
        if not survivors:
            raise ConfigError("cannot fail the last live node")
        self._failed_nodes.add(node_id)
        moved = sorted(
            region
            for region, node in self._region_to_node.items()
            if node == node_id
        )
        for i, region in enumerate(moved):
            self._region_to_node[region] = survivors[i % len(survivors)]
        return moved

    def crash_node(self, node_id: int) -> List[int]:
        """Take a node down WITHOUT moving its regions (a real crash).

        Unlike :meth:`fail_node` — which models master-driven failover
        as one instantaneous step — a crash leaves the placement map
        still pointing at the dead server: requests to those regions
        find nobody home until the supervisor detects the missed
        heartbeats and reassigns them (see
        :class:`repro.core.supervisor.ClusterSupervisor`).  Returns the
        region ids stranded on the dead node.
        """
        if not 0 <= node_id < len(self.nodes):
            raise ConfigError("no node %r" % node_id)
        if node_id in self._failed_nodes:
            return []
        survivors = [
            i
            for i in range(len(self.nodes))
            if i not in self._failed_nodes and i != node_id
        ]
        if not survivors:
            raise ConfigError("cannot fail the last live node")
        self._failed_nodes.add(node_id)
        return self.regions_on(node_id)

    def reassign_regions(self, mapping: Dict[int, int]) -> None:
        """Point regions at new nodes (supervisor-driven recovery moves).

        Every target must be a live node and every region must already
        be placed; validation happens before any assignment is applied.
        """
        for region_id, node_id in mapping.items():
            if region_id not in self._region_to_node:
                raise ConfigError(
                    "region %r was never placed; call place_regions first"
                    % region_id
                )
            if not 0 <= node_id < len(self.nodes):
                raise ConfigError("no node %r" % node_id)
            if node_id in self._failed_nodes:
                raise ConfigError(
                    "cannot assign region %r to failed node %r"
                    % (region_id, node_id)
                )
        self._region_to_node.update(mapping)

    def recover_node(self, node_id: int, rebalance: bool = True) -> None:
        """Bring a failed node back; optionally re-place all regions."""
        self._failed_nodes.discard(node_id)
        self.nodes[node_id].reset()
        if rebalance and self._region_to_node:
            self.place_regions(list(self._region_to_node))

    def is_live(self, node_id: int) -> bool:
        return 0 <= node_id < len(self.nodes) and node_id not in self._failed_nodes

    def regions_on(self, node_id: int) -> List[int]:
        """Region ids currently placed on ``node_id``, ascending."""
        return sorted(
            region
            for region, node in self._region_to_node.items()
            if node == node_id
        )

    @property
    def live_node_count(self) -> int:
        return len(self.nodes) - len(self._failed_nodes)

    def live_nodes(self) -> List[int]:
        """Ids of nodes currently serving regions, ascending."""
        return [
            i for i in range(len(self.nodes)) if i not in self._failed_nodes
        ]

    def node_for_region(self, region_id: int) -> Node:
        try:
            node_idx = self._region_to_node[region_id]
        except KeyError:
            raise ConfigError(
                "region %r was never placed; call place_regions first"
                % region_id
            ) from None
        return self.nodes[node_idx]

    @property
    def region_placement(self) -> Dict[int, int]:
        return dict(self._region_to_node)

    # --------------------------------------------------------- scheduling

    def reset_clock(self) -> None:
        """Return every core to idle at simulated time zero."""
        for node in self.nodes:
            node.reset()

    def run_query(self, tasks: Sequence[Task], submit_at: float = 0.0) -> QueryTimeline:
        """Simulate one query: fan out ``tasks`` to their regions' nodes,
        wait for the slowest, then pay the client-side merge cost."""
        timelines = self.run_queries([list(tasks)], submit_at=[submit_at])
        return timelines[0]

    def run_queries(
        self,
        per_query_tasks: Sequence[Sequence[Task]],
        submit_at: Optional[Sequence[float]] = None,
        client_setup_s: Optional[Sequence[float]] = None,
    ) -> List[QueryTimeline]:
        """Simulate many (possibly concurrent) queries sharing the cluster.

        Tasks are interleaved across queries in region order, which models
        HBase serving concurrent coprocessor invocations fairly rather
        than running whole queries back-to-back.

        ``client_setup_s`` charges per-query client-side work done
        *before* the fan-out (e.g. friend-to-region routing): it delays
        every task of that query and is part of its end-to-end latency.
        """
        if submit_at is None:
            submit_at = [0.0] * len(per_query_tasks)
        if len(submit_at) != len(per_query_tasks):
            raise ConfigError("submit_at must align with per_query_tasks")
        if client_setup_s is None:
            client_setup_s = [0.0] * len(per_query_tasks)
        if len(client_setup_s) != len(per_query_tasks):
            raise ConfigError("client_setup_s must align with per_query_tasks")

        self.reset_clock()
        cm = self.cost_model
        finish_by_query: Dict[int, float] = {}
        records_by_query: Dict[int, int] = {}
        count_by_query: Dict[int, int] = {}
        results_by_query: Dict[int, int] = {}

        # Fair interleave: round-robin one task per query at a time.
        queues = [list(tasks) for tasks in per_query_tasks]
        order: List[tuple] = []  # (query index, task)
        longest = max((len(q) for q in queues), default=0)
        for position in range(longest):
            for qi, queue in enumerate(queues):
                if position < len(queue):
                    order.append((qi, queue[position]))

        for qi, task in order:
            node = self.node_for_region(task.region_id)
            ready = submit_at[qi] + client_setup_s[qi] + cm.rpc_latency_s
            duration = cm.coprocessor_cost_s(task.records_scanned) + task.extra_cost_s
            done = node.schedule(ready, duration) + cm.rpc_latency_s
            finish_by_query[qi] = max(finish_by_query.get(qi, 0.0), done)
            records_by_query[qi] = records_by_query.get(qi, 0) + task.records_scanned
            count_by_query[qi] = count_by_query.get(qi, 0) + 1
            results_by_query[qi] = (
                results_by_query.get(qi, 0) + task.results_returned
            )

        timelines = []
        for qi, tasks in enumerate(per_query_tasks):
            finish = finish_by_query.get(qi, submit_at[qi] + client_setup_s[qi])
            finish += cm.merge_cost_s(results_by_query.get(qi, 0))
            timelines.append(
                QueryTimeline(
                    query_id=qi,
                    submit_at=submit_at[qi],
                    finish_at=finish,
                    tasks=count_by_query.get(qi, 0),
                    records_scanned=records_by_query.get(qi, 0),
                )
            )
        return timelines

    # ------------------------------------------------------------ summary

    def describe(self) -> dict:
        """Human-readable summary of the simulated deployment."""
        return {
            "nodes": len(self.nodes),
            "cores_per_node": self.config.cores_per_node,
            "total_cores": self.config.total_cores,
            "regions_placed": len(self._region_to_node),
            "rpc_latency_ms": self.cost_model.rpc_latency_s * 1e3,
            "cost_per_record_us": self.cost_model.cost_per_record_s * 1e6,
        }
